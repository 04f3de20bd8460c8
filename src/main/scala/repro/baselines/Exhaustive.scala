package repro.baselines

import repro.core.{PositionSpec, Query, SRoute, SkylineSet}
import repro.graph.{Dijkstra, RoadGraph}
import repro.semantics.CategoryForest

/** Brute-force SkySR for tiny graphs: all-pairs shortest distances plus full
  * enumeration of every sequenced route, then a skyline filter. The ground
  * truth every other implementation is diffed against (and itself diffed
  * against a DuckDB SQL rendering in `OracleSkylineSpec`). Supports the §6
  * variations: directed graphs (distances are directional), destinations,
  * and complex category requirements via `PositionSpec`s.
  */
object Exhaustive {

  /** All-pairs shortest distances via repeated Dijkstra (tiny graphs only).
    * `d(u)(v)` is the distance *from* u *to* v (directional).
    */
  def allPairs(g: RoadGraph): Array[Array[Double]] =
    Array.tabulate(g.numVertices)(v => Dijkstra.fromSource(g, v))

  /** Every sequenced route for the query (no pruning), unfiltered. */
  def allRoutes(g: RoadGraph, forest: CategoryForest, query: Query,
                dists: Array[Array[Double]] = null): Vector[SRoute] =
    allRoutesSpecs(g, forest, query.start,
      query.categories.map(PositionSpec.simple), query.destination, dists)

  def allRoutesSpecs(g: RoadGraph, forest: CategoryForest, start: Int,
                     specs: Vector[PositionSpec], destination: Option[Int] = None,
                     dists: Array[Array[Double]] = null): Vector[SRoute] = {
    val d = if (dists != null) dists else allPairs(g)
    val k = specs.size
    val tables = specs.map(PositionSpec.simTable(forest, _))
    val candidates: Array[Array[(Int, Double)]] = Array.tabulate(k) { i =>
      g.pois.flatMap { p =>
        val s = tables(i)(g.poiCategory(p))
        if (s > 0.0) Some((p, s)) else None
      }
    }
    val out = Vector.newBuilder[SRoute]
    def rec(i: Int, route: SRoute): Unit = {
      if (i == k) {
        destination match {
          case None => out += route
          case Some(dest) =>
            val leg = d(route.end)(dest)
            if (!leg.isInfinity)
              out += SRoute(route.pois, route.length + leg, route.simProduct)
        }
      } else candidates(i).foreach { case (p, s) =>
        val from = if (route.isEmpty) start else route.end
        val leg  = d(from)(p)
        if (!leg.isInfinity && !route.contains(p)) rec(i + 1, route.extend(p, leg, s))
      }
    }
    rec(0, SRoute.empty)
    out.result()
  }

  /** The exact SkySR answer: minimal skyline of all sequenced routes. */
  def skySR(g: RoadGraph, forest: CategoryForest, query: Query,
            dists: Array[Array[Double]] = null): Vector[SRoute] =
    SkylineSet.of(allRoutes(g, forest, query, dists))

  def skySRSpecs(g: RoadGraph, forest: CategoryForest, start: Int,
                 specs: Vector[PositionSpec], destination: Option[Int] = None,
                 dists: Array[Array[Double]] = null): Vector[SRoute] =
    SkylineSet.of(allRoutesSpecs(g, forest, start, specs, destination, dists))

  /** Ground truth for the §6 unordered (skyline trip planning) variation:
    * every bijective assignment of the category set to visit positions.
    */
  def skySRUnordered(g: RoadGraph, forest: CategoryForest, start: Int,
                     categories: Vector[Int],
                     dists: Array[Array[Double]] = null): Vector[SRoute] = {
    val d = if (dists != null) dists else allPairs(g)
    SkylineSet.of(categories.permutations.toVector.flatMap(p =>
      allRoutes(g, forest, Query(start, p), d)))
  }
}
