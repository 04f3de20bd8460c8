package repro.bench

import repro.SparkSpec

/** Table 9: the Tokyo use case, answered with the Spark pipeline. */
class Table9Bench extends SparkSpec {

  test("Table 9: Tokyo ⟨Beer Garden, Sushi Restaurant, Sake Bar⟩ — Bar-tree substitutions") {
    val (txt, rows) = Tables.table9(spark)
    println(txt)
    assert(rows.nonEmpty)
    assert(rows.last.sem == 0.0) // perfect route present
    val ms = rows.map(_.meters)
    assert(ms == ms.sorted)
    rows.init.foreach(r => assert(r.meters < rows.last.meters && r.sem > 0.0))
  }
}
