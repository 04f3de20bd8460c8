package repro

import repro.core.{Bssr, BulkSkySRSpark, Query}
import repro.data.{Datasets, PaperExample, Workload}
import repro.graph.{Dijkstra, RoadGraph}
import repro.semantics.CategoryForest

/** DuckDB as an independent oracle: the *entire* SkySR query — sequenced
  * route enumeration over a distance table, semantic scoring, and the
  * skyline dominance filter — expressed in SQL and diffed against the Spark
  * pipeline's (and BSSR's) answer. A wrong join, filter or pruning rule in
  * the pipeline fails the row diff, not just "it ran".
  */
class OracleSkylineSpec extends SparkSpec {

  private def skylineSql(start: Int, k: Int): String = {
    val candAliases = (0 until k).map(i => s"cc c$i").mkString(", ")
    val distAliases = (0 until k).map(i => s"dd d$i").mkString(", ")
    val posPreds    = (0 until k).map(i => s"c$i.pos = $i").mkString(" AND ")
    val distinct = (for { i <- 0 until k; j <- i + 1 until k }
      yield s"c$i.poi <> c$j.poi").mkString(" AND ")
    val hops = (0 until k).map { i =>
      val src = if (i == 0) start.toString else s"c${i - 1}.poi"
      s"d$i.src = $src AND d$i.dst = c$i.poi"
    }.mkString(" AND ")
    val len = (0 until k).map(i => s"d$i.d").mkString(" + ")
    val sim = (0 until k).map(i => s"c$i.sim").mkString(" * ")
    val distinctClause = if (k > 1) s"AND $distinct" else ""
    s"""
       |WITH dd AS (SELECT CAST(src AS INT) AS src, CAST(dst AS INT) AS dst,
       |                   CAST(d AS DOUBLE) AS d FROM dists),
       |     cc AS (SELECT CAST(pos AS INT) AS pos, CAST(poi AS INT) AS poi,
       |                   CAST(sim AS DOUBLE) AS sim FROM cand),
       |     routes AS (
       |       SELECT $len AS len, 1 - ($sim) AS sem
       |       FROM $candAliases, $distAliases
       |       WHERE $posPreds $distinctClause AND $hops
       |     )
       |SELECT DISTINCT len, sem FROM routes r
       |WHERE NOT EXISTS (
       |  SELECT 1 FROM routes r2
       |  WHERE r2.len <= r.len AND r2.sem <= r.sem
       |    AND (r2.len < r.len OR r2.sem < r.sem))
       |""".stripMargin
  }

  /** Run the full cross-check for one graph/query. */
  private def check(g: RoadGraph, forest: CategoryForest, q: Query): Unit = {
    import spark.implicits._
    val k = q.size
    val cand = (0 until k).flatMap { i =>
      g.pois.toSeq.flatMap { p =>
        val s = forest.sim(q.categories(i), g.poiCategory(p))
        if (s > 0) Some((i, p, s)) else None
      }
    }
    val candPois = cand.map(_._2).distinct
    val sources  = (q.start +: candPois).distinct
    val dists = sources.flatMap { s =>
      val d = Dijkstra.fromSource(g, s)
      candPois.collect { case p if p != s && d(p).isFinite => (s, p, d(p)) }
    }
    val candDf  = cand.toDF("pos", "poi", "sim")
    val distsDf = dists.toDF("src", "dst", "d")

    val sky = BulkSkySRSpark.run(spark, g, forest, q)
    // BSSR must agree with the pipeline before we even ask DuckDB
    TestUtil.assertSameSkyline("bssr-vs-spark", new Bssr(g, forest).run(q).skyline, sky)

    val skyDf = sky.map(r => (r.length, r.semScore)).distinct.toDF("len", "sem")
    Oracle.assertEquivalent(skyDf, skylineSql(q.start, k),
      "dists" -> distsDf, "cand" -> candDf)
  }

  test("DuckDB SQL skyline == Spark pipeline on the paper's worked example") {
    check(PaperExample.graph, PaperExample.forest, PaperExample.query)
  }

  for (seed <- 1L to 3L) {
    test(s"DuckDB SQL skyline == Spark pipeline on a random tiny graph (seed $seed)") {
      val g = Datasets.tiny(seed, nRoad = 60, nPois = 25)
      val forest = CategoryForest.foursquareLike
      val q = Workload.queries(g, forest, 1, 2, seed * 5, minPois = 1).head
      check(g, forest, q)
    }
  }

  test("DuckDB SQL skyline == Spark pipeline, |Sq| = 3") {
    val g = Datasets.tiny(11, nRoad = 60, nPois = 25)
    val forest = CategoryForest.foursquareLike
    val q = Workload.queries(g, forest, 1, 3, 44L, minPois = 1).head
    check(g, forest, q)
  }
}
