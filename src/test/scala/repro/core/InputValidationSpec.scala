package repro.core

import repro.SparkSpec
import repro.baselines.{BaselineMetrics, IterativeOsr}
import repro.data.{Datasets, Workload}
import repro.semantics.CategoryForest
import repro.spark.DistributedQueryRunner

/** Empty category sequences, out-of-range start vertices, destinations
  * and category ids, and start vertices that are PoIs (a query starts at a
  * road vertex) fail at the API boundary of each entry point with an
  * `IllegalArgumentException` that names the bad value, instead of deep
  * inside a search. The batch runner checks every query of the batch
  * before it builds the job, so its bad query (after a good one) throws
  * from `run` itself, before any job starts. Iterated OSR, which has no
  * destination leg, rejects every destination the same way.
  */
class InputValidationSpec extends SparkSpec {

  private val forest = CategoryForest.foursquareLike
  private val g      = Datasets.tiny(1)
  private val q      = Workload.queries(g, forest, 1, 2, 5L, minPois = 1).head

  private val badStart = g.numVertices + 5
  private val poiStart = g.pois.head
  private val badDest  = -7
  private val badCat   = forest.size + 3

  private val entryPoints: Seq[(String, Query => Unit)] = Seq(
    "Bssr.run"            -> (query => new Bssr(g, forest).run(query)),
    "BulkSkySRSpark.run"  -> (query => BulkSkySRSpark.run(spark, g, forest, query)),
    "DistributedQueryRunner.run" -> (query =>
      DistributedQueryRunner.run(spark, g, forest, Seq(q, query))),
    "IterativeOsr.skySR"  -> (query =>
      IterativeOsr.skySR(g, forest, query, useDij = true, new BaselineMetrics)),
  )

  private def assertRejects(query: Query, bad: Int, run: Query => Unit): Unit = {
    val e = intercept[IllegalArgumentException](run(query))
    assert(e.getMessage.contains(bad.toString), e.getMessage)
  }

  for ((name, run) <- entryPoints) {
    test(s"$name rejects an out-of-range start vertex") {
      assertRejects(q.copy(start = badStart), badStart, run)
    }
    test(s"$name rejects a start vertex that is a PoI") {
      assertRejects(q.copy(start = poiStart), poiStart, run)
    }
    test(s"$name rejects an out-of-range destination") {
      assertRejects(q.copy(destination = Some(badDest)), badDest, run)
    }
    test(s"$name rejects an out-of-range category id") {
      assertRejects(q.copy(categories = q.categories :+ badCat), badCat, run)
    }
  }

  private val pne: (String, Query => Unit) = "IterativeOsr.skySR (PNE)" -> (query =>
    IterativeOsr.skySR(g, forest, query, useDij = false, new BaselineMetrics))

  for ((name, run) <- entryPoints :+ pne) test(s"$name rejects an empty category sequence") {
    val e = intercept[IllegalArgumentException](run(q.copy(categories = Vector.empty)))
    assert(e.getMessage.contains("empty category sequence"), e.getMessage)
  }

  for ((name, run) <- entryPoints.filter(_._1.startsWith("IterativeOsr")) :+ pne)
    test(s"$name rejects a destination") {
      assertRejects(q.copy(destination = Some(3)), 3, run)
    }

  test("Bssr.runSpecs rejects an out-of-range negated category id") {
    val specs = Vector(PositionSpec(Vector(q.categories.head), noneOf = Set(badCat)))
    assertRejects(q, badCat, _ => new Bssr(g, forest).runSpecs(q.start, specs))
  }
}
