package repro.core

import repro.graph.{NearestNeighborSearch, RoadGraph, SearchMetrics}

/** NNinit (paper Algorithm 3): the nearest-neighbour initial search.
  *
  * Greedily hops to the nearest *perfectly* matching PoI for positions
  * 1..k-1; on the final leg it settles vertices in distance order, emitting a
  * candidate sequenced route for every *semantically* matching PoI
  * encountered before (and including) the first perfect match. The result
  * seeds the skyline set `S`, i.e. the branch-and-bound upper bounds: one
  * seeded route has semantic score 0 and the side-matches have smaller
  * length scores (§5.3.1).
  *
  * Generalized over per-position similarity tables (so the §6 complex
  * category requirements work unchanged) and the optional destination (the
  * final leg to the destination is added to each seeded route's length).
  * [[QueryPlan]] runs it for both solvers.
  */
object NNInit {

  /** Routes found, in discovery order (`sky` is updated in place). */
  def runTables(
      g: RoadGraph,
      simPos: Array[Array[Double]],
      start: Int,
      distToDest: Option[Array[Double]],
      sky: SkylineSet,
      metrics: SearchMetrics,
  ): Vector[SRoute] = {
    val m     = if (metrics != null) metrics else new SearchMetrics // null (skybench's probe): uncounted
    val k     = simPos.length
    val found = Vector.newBuilder[SRoute]
    var route = SRoute.empty
    var cur   = start

    // Each leg settles through its semantic matches up to its first perfect
    // one: a non-last leg keeps that match, the last leg emits every match.
    var i = 0
    var stuck = false
    while (i < k && !stuck) {
      val sims   = simPos(i)
      val isLast = i == k - 1
      val nns = new NearestNeighborSearch(
        g, cur, v => g.poiSim(sims, v) > 0.0 && !route.contains(v), m)
      var rank = 0
      var perfect = false
      while (!perfect && !stuck) {
        nns.get(rank) match {
          case Some((p, d)) =>
            val s = g.poiSim(sims, p)
            perfect = s == 1.0
            if (isLast) route.extend(p, d, s).toDestination(distToDest).foreach { r =>
              found += r
              sky.update(r)
            }
            else if (perfect) { route = route.extend(p, d, s); cur = p }
          case None => stuck = true // no perfect match reachable; partial init
        }
        rank += 1
      }
      i += 1
    }
    found.result()
  }
}
