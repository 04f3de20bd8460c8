package repro.bench

import repro.SparkSpec

/** Table 1: the NYC example query, answered with the Spark pipeline. */
class Table1Bench extends SparkSpec {

  test("Table 1: NYC ⟨Cupcake Shop, Art Museum, Jazz Club⟩ — shorter semantic alternatives") {
    val (txt, rows) = Tables.table1(spark)
    println(txt)
    assert(rows.nonEmpty)
    // skyline order: lengths ascend, semantic scores descend strictly
    val ms = rows.map(_.meters)
    assert(ms == ms.sorted)
    val ss = rows.map(_.sem)
    assert(ss == ss.sorted.reverse)
    // the perfect-match route exists and is the longest; any other skyline
    // route is a strictly shorter semantic substitution (the paper's point)
    assert(rows.last.sem == 0.0)
    rows.init.foreach { r =>
      assert(r.meters < rows.last.meters && r.sem > 0.0)
      assert(r.names.exists(n => n != "Cupcake Shop" && n != "Art Museum" && n != "Jazz Club"))
    }
  }
}
