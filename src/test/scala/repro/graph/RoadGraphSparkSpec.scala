package repro.graph

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import repro.SparkSpec
import repro.data.Datasets

/** The distributed PoI-graph builder. */
class RoadGraphSparkSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  test("PoiDistances matches driver-side Dijkstra") {
    val g = Datasets.tiny(5)
    val sources = Seq(0, 3, 7)
    val cats = g.poisByCategory.keySet
    val collected = PoiDistances.build(spark, g, sources, cats, bound = Double.PositiveInfinity)
      .collect().map(r => ((r.getInt(0), r.getInt(1)), (r.getDouble(2), r.getInt(3))))
    val rows = collected.toMap
    assert(collected.length == rows.size && rows.size == sources.map(s => g.pois.count(_ != s)).sum)
    sources.foreach { s =>
      val d = Dijkstra.fromSource(g, s)
      g.pois.filter(_ != s).foreach { p =>
        assert(rows.contains((s, p)), s"missing pair $s->$p")
        assert(rows((s, p)) == ((d(p), g.poiCategory(p))), s"pair $s->$p")
      }
    }
  }

  test("PoiDistances honors the distance bound and the category filter") {
    val g = Datasets.tiny(6)
    val someCat = g.poisByCategory.keys.head
    val d0 = Dijkstra.fromSource(g, 0)
    val bound = g.pois.map(d0).sorted.apply(g.numPois / 2)
    val rows = PoiDistances.build(spark, g, Seq(0), Set(someCat), bound).collect()
    rows.foreach { r =>
      assert(r.getDouble(2) <= bound)
      assert(g.poiCategory(r.getInt(1)) == someCat)
    }
    val expected = g.pois.count(p => p != 0 && g.poiCategory(p) == someCat && d0(p) <= bound)
    assert(rows.length == expected)
  }

  test("the PoI-graph build is one stage: the physical plan has no exchange") {
    val g  = Datasets.tiny(5)
    val df = PoiDistances.build(spark, g, Seq(0, 3, 7), g.poisByCategory.keySet,
      bound = Double.PositiveInfinity)
    val plan = df.queryExecution.executedPlan
    assert(collect(plan) { case e: Exchange => e }.isEmpty, plan.toString)
  }
}
