package repro.spark

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import repro.SparkSpec
import repro.core.{Bssr, BssrOptions}
import repro.data.{Datasets, Workload}
import repro.semantics.CategoryForest

class DistributedQueryRunnerSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val forest  = CategoryForest.foursquareLike
  private val columns = Seq("queryId", "rank", "pois", "length", "semScore", "exact")

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
      // the same BSSR code answers each query, so the scores are bit-equal
      got.zip(want).foreach { case ((_, _, pois, len, sem), w) =>
        assert(pois == w.pois.mkString(" "))
        assert(len == w.length, s"query $id length")
        assert(sem == w.semScore, s"query $id semScore")
      }
    }
  }

  test("runner output schema and rank ordering") {
    val g  = Datasets.testSmall
    // more queries than partitions, so each partition answers several
    val n  = 3 * spark.sparkContext.defaultParallelism + 1
    val qs = Workload.queries(g, forest, n, 2, 5L, minPois = 3)
    val df = DistributedQueryRunner.run(spark, g, forest, qs)
    assert(df.columns.toSeq == columns)
    val byQ = df.collect().groupBy(_.getInt(0))
    assert(byQ.keySet == qs.indices.toSet, "every query answered")
    byQ.values.foreach { rows =>
      val sorted = rows.sortBy(_.getInt(1))
      // ranks are dense from 0 and lengths ascend with rank (skyline order)
      assert(sorted.map(_.getInt(1)).toSeq == sorted.indices)
      val lens = sorted.map(_.getDouble(3)).toSeq
      assert(lens == lens.sorted)
    }
  }

  test("an empty batch yields no rows under the same columns") {
    val df = DistributedQueryRunner.run(spark, Datasets.testSmall, forest, Seq.empty)
    assert(df.columns.toSeq == columns)
    assert(df.collect().isEmpty)
  }

  test("the job is one stage: the physical plan has no exchange") {
    val g  = Datasets.testSmall
    val qs = Workload.queries(g, forest, 4, 2, 5L, minPois = 3)
    val df = DistributedQueryRunner.run(spark, g, forest, qs)
    val plan = df.queryExecution.executedPlan
    assert(collect(plan) { case e: Exchange => e }.isEmpty, plan.toString)
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
