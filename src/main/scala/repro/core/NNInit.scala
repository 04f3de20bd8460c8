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
    val k     = simPos.length
    val found = Vector.newBuilder[SRoute]
    var route = SRoute.empty
    var cur   = start

    var i = 0
    var stuck = false
    while (i < k && !stuck) {
      val isLast = i == k - 1
      if (!isLast) {
        val nns = new NearestNeighborSearch(
          g, cur, v => g.poiSim(simPos(i), v) == 1.0 && !route.contains(v), metrics)
        nns.get(0) match {
          case Some((p, d)) =>
            route = route.extend(p, d, 1.0)
            cur = p
          case None => stuck = true // no perfect match reachable; partial init
        }
      } else {
        // Final leg: collect semantic matches until the first perfect match.
        val nns = new NearestNeighborSearch(
          g, cur, v => g.poiSim(simPos(i), v) > 0.0 && !route.contains(v), metrics)
        var rank = 0
        var done = false
        while (!done) {
          nns.get(rank) match {
            case Some((p, d)) =>
              val s = g.poiSim(simPos(i), p)
              route.extend(p, d, s).toDestination(distToDest).foreach { r =>
                found += r
                sky.update(r)
              }
              if (s == 1.0) done = true
            case None => done = true
          }
          rank += 1
        }
      }
      i += 1
    }
    found.result()
  }
}
