package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed builder of the PoI graph: network distances from a set of
  * source vertices to target PoIs, computed as one bounded Dijkstra per
  * source over a broadcast CSR graph, parallelized across the cluster. Each
  * `(src, dst, dist, cat)` row carries the target's category, by which the
  * bulk SkySR pipeline attaches the target's positions without a join. The
  * build is one RDD stage: `parallelize` slices the sources, so no shuffle.
  */
object PoiDistances {

  def build(
      spark: SparkSession,
      g: RoadGraph,
      sources: Seq[Int],
      targetCategories: Set[Int],
      bound: Double,
  ): DataFrame = {
    import spark.implicits._
    val sc    = spark.sparkContext
    val bg    = sc.broadcast(g)
    val parts = math.max(1, math.min(sources.size, sc.defaultParallelism * 2))
    sc.parallelize(sources, parts)
      .mapPartitions { it =>
        val graph = bg.value
        it.flatMap { s =>
          val dist = Dijkstra.fromSource(graph, s, bound)
          graph.pois.iterator
            .filter(p => p != s && targetCategories.contains(graph.poiCategory(p)) && dist(p) <= bound)
            .map(p => (s, p, dist(p), graph.poiCategory(p)))
        }
      }
      .toDF("src", "dst", "dist", "cat")
  }
}
