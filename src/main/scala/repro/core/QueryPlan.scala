package repro.core

import repro.graph.{Dijkstra, RoadGraph, SearchMetrics}
import repro.semantics.CategoryForest

/** A query's prologue, built once by `QueryPlan.apply` and read by `Bssr`
  * and `BulkSkySRSpark`:
  *
  *  - `simPos(i)`: position `i`'s similarity table (Eq. 6/7).
  *  - `overlapping(i)`: another position matches a PoI-carrying category that
  *    `i` matches, so the route's used-PoI set constrains both (Def. 3.4-iii).
  *    Bssr then switches Lemma 5.5 off at `i` (the lemma only prunes, so
  *    exactness holds); the Spark pipeline keys its per-end skyline on the
  *    used set. Paper workloads use distinct trees (§7.1), so nothing overlaps.
  *  - `distToDest`: §6, the distance from every vertex *to* the destination
  *    (searched on the transpose, so directed graphs work).
  *  - `seeds`: NNinit's routes in discovery order (§5.3.1), found in
  *    `initNanos`; `l0` is the shortest perfect seed's length, the first
  *    bound of Lemma 5.3. Without NNinit: no seeds, `l0` = +∞, time 0.
  *  - `legS`, `legP`, `legSrcs`: the leg bounds of Def. 5.7 and their sources
  *    ([[LowerBounds.legsTables]] over the `l0` ball), summed into `lsSuf` and
  *    `lpSuf`. Without bounds: all 0 and empty.
  *  - `maxNonPerfSuffix(s)`: the largest non-perfect similarity of a PoI at
  *    any position `s..k-1`, which sets δ of Lemma 5.8.
  */
final class QueryPlan private (
    val simPos: Array[Array[Double]],
    val overlapping: Array[Boolean],
    val distToDest: Option[Array[Double]],
    val seeds: Vector[SRoute],
    val initNanos: Long,
    val l0: Double,
    val legS: Array[Double],
    val legP: Array[Double],
    val legSrcs: Array[Array[Int]],
    val maxNonPerfSuffix: Array[Double],
) {
  val lsSuf: Array[Double] = LowerBounds.suffixSums(legS)
  val lpSuf: Array[Double] = LowerBounds.suffixSums(legP)
}

object QueryPlan {

  /** The checks that need no table: the category sequence is non-empty, the
    * start, the destination and every category id are in range, and the start
    * is a road vertex (DESIGN.md §6b). Throws `IllegalArgumentException`
    * naming the bad value.
    */
  def validate(g: RoadGraph, forest: CategoryForest, start: Int,
               specs: Vector[PositionSpec], destination: Option[Int]): Unit = {
    require(specs.nonEmpty, "empty category sequence")
    g.requireVertex(start, "start")
    require(!g.isPoi(start), s"start vertex $start is a PoI; a query starts at a road vertex")
    destination.foreach(g.requireVertex(_, "destination"))
    specs.foreach(PositionSpec.requireCategories(forest, _))
  }

  /** Validates the query, then runs its searches in a fixed order, each
    * counted in `metrics`: the destination search, NNinit if `opts.useInit`,
    * the leg bounds if `opts.useLowerBound`.
    */
  def apply(g: RoadGraph, forest: CategoryForest, start: Int,
            specs: Vector[PositionSpec], destination: Option[Int],
            opts: BssrOptions, metrics: SearchMetrics): QueryPlan = {
    validate(g, forest, start, specs, destination)
    val k = specs.size
    val simPos = specs.toArray.map(PositionSpec.simTable(forest, _))
    val present = g.poisByCategory.keys
    val matchSets = simPos.map(t => present.filter(c => t(c) > 0.0).toSet)
    val overlapping = Array.tabulate(k) { i =>
      simPos.indices.exists(j => j != i && matchSets(i).intersect(matchSets(j)).nonEmpty)
    }
    val maxNonPerfSuffix = new Array[Double](k + 1)
    for (s <- (0 until k).reverse)
      maxNonPerfSuffix(s) = present.foldLeft(maxNonPerfSuffix(s + 1)) { (m, c) =>
        val x = simPos(s)(c); if (x < 1.0 && x > m) x else m
      }
    val distToDest = destination.map(d => Dijkstra.fromSource(g.transpose, d, metrics = metrics))

    val sky = new SkylineSet
    val ti = System.nanoTime()
    val seeds =
      if (opts.useInit) NNInit.runTables(g, simPos, start, distToDest, sky, metrics)
      else Vector.empty
    val initNanos = if (opts.useInit) System.nanoTime() - ti else 0L
    val l0 = sky.thresholdFor(0.0)

    val (legS, legP, legSrcs) =
      if (opts.useLowerBound) LowerBounds.legsTables(g, simPos, start, l0, metrics)
      else (new Array[Double](k), new Array[Double](k), Array.fill(k)(Array.empty[Int]))
    new QueryPlan(simPos, overlapping, distToDest, seeds, initNanos, l0,
      legS, legP, legSrcs, maxNonPerfSuffix)
  }
}
