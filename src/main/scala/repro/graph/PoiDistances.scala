package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Distributed builder of the PoI graph: network distances from a set of
  * source vertices to target PoIs, computed as one bounded Dijkstra per
  * source over a broadcast CSR graph, parallelized across the cluster. The
  * resulting `(src, dst, dist)` DataFrame is what the bulk SkySR pipeline
  * joins against level by level. The build is one RDD stage: `parallelize`
  * slices the sources, so no shuffle precedes the searches.
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
            .map(p => (s, p, dist(p)))
        }
      }
      .toDF("src", "dst", "dist")
  }
}
