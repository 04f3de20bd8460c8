package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Bssr, BssrOptions, Query}
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

/** Batch SkySR serving as a Spark job: a workload of queries is distributed
  * across executors, each running the sequential BSSR against a broadcast
  * graph + category forest. This is the production shape for answering many
  * SkySR queries over one map — the complement of [[repro.core.BulkSkySRSpark]],
  * which distributes a *single* query's search.
  */
object DistributedQueryRunner {

  /** One row per skyline route: (queryId, rank, pois csv, length, semScore,
    * exact). `exact` is false when the query hit `opts.maxSettled`: its routes
    * are then only the skyline found so far, not the exact answer.
    */
  def run(
      spark: SparkSession,
      g: RoadGraph,
      forest: CategoryForest,
      queries: Seq[Query],
      opts: BssrOptions = BssrOptions.all,
  ): DataFrame = {
    import spark.implicits._
    val bg = spark.sparkContext.broadcast(g)
    val bf = spark.sparkContext.broadcast(forest)
    val in = queries.zipWithIndex.map { case (q, i) =>
      (i, q.start, q.categories, q.destination)
    }
    val parts = math.max(1, math.min(queries.size, spark.sparkContext.defaultParallelism))
    spark
      .createDataset(in)
      .repartition(parts)
      .mapPartitions { it =>
        val bssr = new Bssr(bg.value, bf.value, opts)
        it.flatMap { case (id, start, cats, dest) =>
          val res   = bssr.run(Query(start, cats, dest))
          val exact = !res.metrics.aborted
          res.skyline.zipWithIndex.map { case (r, rank) =>
            (id, rank, r.pois.mkString(" "), r.length, r.semScore, exact)
          }
        }
      }
      .toDF("queryId", "rank", "pois", "length", "semScore", "exact")
  }
}
