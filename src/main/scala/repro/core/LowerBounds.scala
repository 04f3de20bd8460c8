package repro.core

import repro.graph.{Dijkstra, RoadGraph, SearchMetrics}

/** Possible minimum distances of Def. 5.7 — the semantic-match (`l_s`) and
  * perfect-match (`l_p`) lower bounds on the length a route must still gain
  * per remaining leg, both from one multi-source multi-destination Dijkstra
  * pass per leg (Lemma 5.9) over PoI sets restricted to the `l̄(φ)` ball
  * around the start (Algorithm 4). [[QueryPlan]] computes them once per query,
  * so the sequential BSSR and the Spark pipeline prune with identical bounds.
  */
object LowerBounds {

  /** (legS, legP, legSrcs), each of length k: entries 1..k-1 are leg i,
    * between positions i and i+1 (index 0 unused: 0.0 or empty). A leg bound
    * is +∞ when no qualifying pair exists — every completion through it is
    * prunable. Leg i's sources are the PoIs of the `thr0` ball around the
    * start that match position i; the Spark pipeline's PoI graph starts
    * from them. "Semantic match" is `sim > 0` under the position's table;
    * "perfect match" is `sim == 1` (for a plain position that is exactly the
    * queried category, Eq. 5).
    */
  def legsTables(
      g: RoadGraph,
      simPos: Array[Array[Double]],
      start: Int,
      thr0: Double,
      metrics: SearchMetrics = new SearchMetrics,
  ): (Array[Double], Array[Double], Array[Array[Int]]) = {
    val k = simPos.length
    val legS = Array.fill(k)(0.0)
    val legP = Array.fill(k)(0.0)
    val legSrcs = Array.fill(k)(Array.empty[Int])
    if (k >= 2) {
      val dv = Dijkstra.fromSource(g, start, thr0, metrics)
      def inBall(v: Int) = dv(v) <= thr0
      for (i <- 1 until k) {
        val srcs = g.pois.filter(p => g.poiSim(simPos(i - 1), p) > 0 && inBall(p))
        legSrcs(i) = srcs
        val (ls, lp) = Dijkstra.multiSourceMinDist(
          g, srcs, v => if (inBall(v)) g.poiSim(simPos(i), v) else 0.0,
          bound = thr0, metrics = metrics)
        legS(i) = ls
        legP(i) = lp
      }
    }
    (legS, legP, legSrcs)
  }

  /** Suffix sums: `suffix(s) = Σ_{i=s}^{k-1} leg(i)` — the minimum extra
    * length any size-`s` partial route needs to become sequenced.
    */
  def suffixSums(leg: Array[Double]): Array[Double] = {
    val k = leg.length
    val suf = Array.fill(k + 1)(0.0)
    for (s <- (1 until k).reverse) suf(s) = suf(s + 1) + leg(s)
    if (k >= 1) suf(0) = suf(1)
    suf
  }
}
