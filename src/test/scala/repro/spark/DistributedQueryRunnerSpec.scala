package repro.spark

import repro.SparkSpec
import repro.core.{Bssr, BssrOptions}
import repro.data.{Datasets, Workload}
import repro.semantics.CategoryForest

class DistributedQueryRunnerSpec extends SparkSpec {

  private val forest = CategoryForest.foursquareLike

  test("batch runner returns exactly the sequential per-query skylines") {
    val g  = Datasets.testSmall
    val qs = Workload.queries(g, forest, 8, 3, 31L, minPois = 3)
    val df = DistributedQueryRunner.run(spark, g, forest, qs)
    val all  = df.collect()
    assert(all.forall(_.getBoolean(5)), "an uncapped query is exact")
    val rows = all.map(r =>
      (r.getInt(0), r.getInt(1), r.getString(2), r.getDouble(3), r.getDouble(4)))
    val bssr = new Bssr(g, forest)
    qs.zipWithIndex.foreach { case (q, id) =>
      val want = bssr.run(q).skyline
      val got  = rows.filter(_._1 == id).sortBy(_._2)
      assert(got.length == want.size, s"query $id size")
      got.zip(want).foreach { case ((_, _, pois, len, sem), w) =>
        assert(pois == w.pois.mkString(" "))
        assert(math.abs(len - w.length) < 1e-9)
        assert(math.abs(sem - w.semScore) < 1e-9)
      }
    }
  }

  test("runner output schema and rank ordering") {
    val g  = Datasets.testSmall
    val qs = Workload.queries(g, forest, 3, 2, 5L, minPois = 3)
    val df = DistributedQueryRunner.run(spark, g, forest, qs)
    assert(df.columns.toSeq == Seq("queryId", "rank", "pois", "length", "semScore", "exact"))
    val byQ = df.collect().groupBy(_.getInt(0))
    byQ.values.foreach { rows =>
      val sorted = rows.sortBy(_.getInt(1))
      // ranks are dense from 0 and lengths ascend with rank (skyline order)
      assert(sorted.map(_.getInt(1)).toSeq == sorted.indices)
      val lens = sorted.map(_.getDouble(3)).toSeq
      assert(lens == lens.sorted)
    }
  }

  test("budget-capped queries are flagged inexact") {
    val g      = Datasets.testSmall
    val qs     = Workload.queries(g, forest, 4, 3, 31L, minPois = 3)
    val capped = BssrOptions(maxSettled = 10)
    val rows   = DistributedQueryRunner.run(spark, g, forest, qs, capped).collect()
    assert(rows.nonEmpty)
    assert(rows.forall(!_.getBoolean(5)))
    // the flag is the sequential run's `aborted`, negated
    val bssr = new Bssr(g, forest, capped)
    assert(qs.forall(q => bssr.run(q).metrics.aborted))
  }
}
