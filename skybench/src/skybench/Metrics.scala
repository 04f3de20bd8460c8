package skybench

import scala.collection.mutable

/** Every metric the benchmark reports, with its unit. The two lists are the
  * `end_to_end` and `per_layer` lists of `BENCHMARK.json`, in order.
  */
object Metrics {

  val EndToEnd: Vector[(String, String)] = Vector(
    "setup_s"      -> "s",
    "query_p50_ms" -> "ms",
    "qps"          -> "queries/s",
    "heap_mb"      -> "MB",
  )

  val PerLayer: Vector[(String, String)] = Vector(
    "data.generate_s"                -> "s",
    "semantics.simtable_us"          -> "us",
    "core.nninit.ms"                 -> "ms",
    "core.nninit.seed_routes"        -> "count",
    "core.lower_bounds.ms"           -> "ms",
    "core.lower_bounds.searches"     -> "count",
    "core.lower_bounds.settled"      -> "count",
    "core.search.ms"                 -> "ms",
    "core.search.mdijkstra_runs"     -> "count",
    "core.search.cache_hits"         -> "count",
    "core.search.cache_hit_ratio"    -> "ratio",
    "core.search.routes_enqueued"    -> "count",
    "core.search.routes_dequeued"    -> "count",
    "core.search.expanded_ratio"     -> "ratio",
    "core.search.peak_queue"         -> "count",
    "graph.settled"                  -> "count",
    "graph.relaxed"                  -> "count",
    "graph.settled_per_s"            -> "1/s",
    "graph.from_source_us"           -> "us",
    "core.pipeline.query_ms"         -> "ms",
    "core.pipeline.jobs_per_query"   -> "count",
    "core.pipeline.tasks_per_query"  -> "count",
    "core.pipeline.shuffle_mb_per_query" -> "MB",
    "core.pipeline.poi_graph_ms"     -> "ms",
    "core.pipeline.poi_graph_rows"   -> "count",
    "spark.jobs_per_query"           -> "count",
    "spark.tasks_per_query"          -> "count",
    "spark.shuffle_mb_per_query"     -> "MB",
    "spark.runner.seq_qps"           -> "queries/s",
    "spark.runner.speedup"           -> "ratio",
    "spark.runner.efficiency"        -> "ratio",
    "baselines.dij_ms"               -> "ms",
    "baselines.osr_runs"             -> "count",
    "verify.tie_splits"              -> "count",
    "failed_frac"                    -> "ratio",
    "query_tail_ms"                  -> "ms",
    "answers.digest"                 -> "hash",
    "tracing_overhead_frac"          -> "ratio",
  )

  val units: Map[String, String] = (EndToEnd ++ PerLayer).toMap

  /** `num / den`, or 0 when nothing was counted. */
  def ratio(num: Double, den: Double): Double = if (den == 0.0) 0.0 else num / den
}

/** What one run measured: metric values, counts and notes. */
final class Report {
  private val values = mutable.HashMap.empty[String, Double]
  val notes = mutable.ArrayBuffer.empty[String]
  var attempted = 0L
  var failed    = 0L

  def put(name: String, value: Double): Unit = {
    require(Metrics.units.contains(name), s"unknown metric $name")
    if (value.isNaN || value.isInfinite) {
      note(s"$name was $value; reported as 0")
      values(name) = 0.0
    } else values(name) = value
  }

  def note(s: String): Unit = notes += s

  def get(name: String): Double = values.getOrElse(name, 0.0)

  /** The result line: every metric of the run's mode, absent ones as 0,
    * which is what they are on a workload where their layer does no work.
    */
  def json(trace: Boolean): String = {
    val names = if (trace) Metrics.PerLayer else Metrics.EndToEnd
    val ms = names.map { case (n, u) =>
      s""""$n": {"value": ${java.lang.Double.toString(get(n))}, "unit": "$u"}"""
    }
    s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": $attempted, """ +
      s""""failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
