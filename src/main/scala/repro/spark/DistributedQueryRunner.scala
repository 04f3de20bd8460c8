package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{Bssr, BssrOptions, Query, QueryPlan}
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

/** Batch SkySR serving as a Spark job: a workload of queries is distributed
  * across executors, each running the sequential BSSR against a broadcast
  * graph + category forest. This is the production shape for answering many
  * SkySR queries over one map — the complement of [[repro.core.BulkSkySRSpark]],
  * which distributes a *single* query's search.
  *
  * The job is one RDD stage: the queries are sliced into at most
  * `defaultParallelism` partitions, each partition runs one `Bssr` over its
  * slice, and the rows become a DataFrame without a shuffle.
  */
object DistributedQueryRunner {

  /** One row per skyline route: (queryId, rank, pois csv, length, semScore,
    * exact), in queryId then rank order. `exact` is false when the query hit
    * `opts.maxSettled`: its routes are then only the skyline found so far,
    * not the exact answer. Every query is validated before the job is
    * built, so a bad one throws `IllegalArgumentException` from `run`.
    */
  def run(
      spark: SparkSession,
      g: RoadGraph,
      forest: CategoryForest,
      queries: Seq[Query],
      opts: BssrOptions = BssrOptions.all,
  ): DataFrame = {
    queries.foreach(q => QueryPlan.validate(g, forest, q.start, q.specs, q.destination))
    import spark.implicits._
    val sc    = spark.sparkContext
    val bg    = sc.broadcast(g)
    val bf    = sc.broadcast(forest)
    val parts = math.max(1, math.min(queries.size, sc.defaultParallelism))
    sc.parallelize(queries.zipWithIndex, parts)
      .mapPartitions { it =>
        val bssr = new Bssr(bg.value, bf.value, opts)
        it.flatMap { case (q, id) =>
          val res   = bssr.run(q)
          val exact = !res.metrics.aborted
          res.skyline.zipWithIndex.map { case (r, rank) =>
            (id, rank, r.pois.mkString(" "), r.length, r.semScore, exact)
          }
        }
      }
      .toDF("queryId", "rank", "pois", "length", "semScore", "exact")
  }
}
