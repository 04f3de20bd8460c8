package repro.baselines

import repro.core.{PositionSpec, Query, QueryPlan, SRoute, SkylineSet}
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.collection.mutable

/** The paper's naive SkySR solution (§4): iterate an OSR solver over the
  * exponentially-many relaxations of the category sequence, then skyline-
  * filter the candidate routes.
  *
  * We enumerate per-position *similarity levels* instead of the paper's
  * super-category sequences — the distinct `sim` values realizable in each
  * queried category's tree — and solve a threshold-OSR (`match := sim ≥ h`)
  * per combination, on each position's `simTable` with the entries below
  * its level `h` zeroed. This keeps the result exact for any forest (see
  * DESIGN.md §6) while preserving the baseline's exponential cost shape:
  * the combination count is Π|levels_i|, and levels correspond 1:1 to
  * ancestor depths in balanced trees.
  */
object IterativeOsr {

  /** Distinct positive similarity levels per position, over categories that
    * actually carry PoIs, descending; read off the positions' `simTable`s.
    */
  def simLevels(g: RoadGraph, simTables: Array[Array[Double]]): Array[Array[Double]] = {
    val present = g.poisByCategory.keys.toArray
    simTables.map(t => present.map(t(_)).filter(_ > 0.0).distinct.sorted.reverse)
  }

  /** Exact SkySR via iterated OSR. `useDij` picks the Dijkstra-based OSR
    * solver, otherwise PNE. Budget caps mark the run `aborted` (the paper's
    * "not finished after a month" bars). The OSR solvers have no final leg,
    * so a query with a destination is rejected first; `QueryPlan.validate`
    * checks the rest.
    */
  def skySR(
      g: RoadGraph,
      forest: CategoryForest,
      query: Query,
      useDij: Boolean,
      metrics: BaselineMetrics,
      maxSettled: Long = Long.MaxValue,
  ): Vector[SRoute] = {
    val t0 = System.nanoTime()
    require(query.destination.isEmpty,
      s"iterated OSR answers only queries without a destination (got destination ${query.destination.get})")
    QueryPlan.validate(g, forest, query.start, query.specs, None)
    val simTables = query.specs.toArray.map(PositionSpec.simTable(forest, _))
    val levels    = simLevels(g, simTables)
    val k         = query.size
    val candidates = mutable.ArrayBuffer.empty[SRoute]
    def rec(pos: Int, mins: List[Double]): Unit = {
      if (metrics.aborted) return
      if (pos == k) {
        val tables = mins.reverse.zipWithIndex.map { case (h, i) =>
          simTables(i).map(s => if (s >= h) s else 0.0)
        }.toArray
        metrics.osrRuns += 1
        try {
          val r =
            if (useDij) OsrDijkstra.osr(g, query.start, tables, metrics, maxSettled)
            else OsrPne.osr(g, query.start, tables, metrics, maxSettled)
          r.foreach(candidates += _)
        } catch { case _: BudgetExceeded => metrics.aborted = true }
      } else levels(pos).foreach(h => rec(pos + 1, h :: mins))
    }
    rec(0, Nil)
    val out = SkylineSet.of(candidates)
    metrics.totalTimeNanos = System.nanoTime() - t0
    out
  }
}
