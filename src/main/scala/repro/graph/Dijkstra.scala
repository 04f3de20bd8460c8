package repro.graph

import scala.collection.mutable

/** Mutable counters shared by all searches of one query execution.
  *
  * `weightSum` accumulates the weights of relaxed (scanned) edges — our
  * concrete rendering of the paper's "weight sum, which represents the
  * search space" (Table 7). `settled` counts dequeued-and-settled vertices —
  * the "number of vertices visited" of Table 8.
  */
final class SearchMetrics {
  var settled: Long    = 0L
  var relaxed: Long    = 0L
  var weightSum: Double = 0.0
}

/** Classic Dijkstra variants over [[RoadGraph]]. The modified Dijkstra of the
  * paper's Algorithm 2 lives in `repro.core.Bssr` (it needs route state); the
  * plain searches here back NNinit, the lower-bound estimation (Lemma 5.9)
  * and the Spark PoI-graph builder. All of them queue vertices in a fresh
  * [[MinHeap]], so equal-distance ties resolve exactly as in
  * `mutable.PriorityQueue`. Lazy deletion without decrease-key: a vertex may
  * be queued more than once, but in `fromSource`, [[NearestNeighborSearch]]
  * and `Bssr.expand` every push strictly lowers its label, so exactly one
  * queued entry carries the final label and a pop `(d, u)` settles `u` iff
  * `d == dist(u)`, with no settled mark. The array-backed searches allocate
  * their O(|V|) labels per call.
  */
object Dijkstra {

  val Inf: Double = Double.PositiveInfinity

  /** Single-source distances, bounded: vertices with true distance ≤
    * `maxDist` get their exact distance; farther vertices keep a value
    * > `maxDist` (a tentative frontier label or `Inf`) — never an
    * under-report, so ball tests `dist(v) <= maxDist` stay exact.
    */
  def fromSource(
      g: RoadGraph,
      source: Int,
      maxDist: Double = Inf,
      metrics: SearchMetrics = new SearchMetrics,
  ): Array[Double] = {
    val dist = filled(g.numVertices, Inf)
    val pq   = new MinHeap
    dist(source) = 0.0
    pq.push(0.0, source, source)
    while (pq.nonEmpty) {
      val d = pq.minKey
      val u = pq.minVertex
      pq.pop()
      if (d == dist(u)) {
        if (d > maxDist) pq.clear()
        else {
          metrics.settled += 1
          var i = g.adjIndex(u)
          while (i < g.adjIndex(u + 1)) {
            val v = g.adjVertex(i)
            val w = g.adjWeight(i)
            metrics.relaxed += 1; metrics.weightSum += w
            val nd = d + w
            if (nd < dist(v)) { dist(v) = nd; pq.push(nd, v, source) }
            i += 1
          }
        }
      }
    }
    dist
  }

  /** `(l_s, l_p)`: the minimum network distance from any vertex in `sources`
    * to a semantic match (`sim(v) > 0`) and to a perfect match
    * (`sim(v) == 1`) — the multi-source multi-destination Dijkstra of
    * Lemma 5.9, used to compute the possible minimum distances of Def. 5.7.
    * A perfect match is also a semantic match, so one pass finds both: l_s
    * at the first matching settle, l_p at the first perfect one, where the
    * search stops. A distance beyond `bound` (or no match) is +∞.
    *
    * Pairs where source == destination are excluded (a sequenced route never
    * visits the same PoI twice, Def. 3.4-iii), which matters when the two
    * PoI sets overlap; we keep up to two settled labels with distinct
    * origins per vertex so the best distinct-pair distance is still exact.
    */
  def multiSourceMinDist(
      g: RoadGraph,
      sources: Array[Int],
      sim: Int => Double,
      bound: Double,
      metrics: SearchMetrics,
  ): (Double, Double) = {
    if (sources.isEmpty) return (Inf, Inf)
    var ls = Inf
    val origin1 = filled(g.numVertices, -1)
    val origin2 = filled(g.numVertices, -1)
    val pq      = new MinHeap(math.max(64, sources.length))
    sources.foreach(s => pq.push(0.0, s, s))
    while (pq.nonEmpty) {
      val d      = pq.minKey
      val u      = pq.minVertex
      val origin = pq.minOrigin
      pq.pop()
      if (d > bound) return (ls, Inf)
      val fresh = origin1(u) < 0 ||
        (origin2(u) < 0 && origin1(u) != origin)
      if (fresh) {
        if (origin1(u) < 0) origin1(u) = origin else origin2(u) = origin
        metrics.settled += 1
        if (origin != u) {
          val s = sim(u)
          if (s > 0.0 && ls == Inf) ls = d
          if (s == 1.0) return (ls, d)
        }
        var i = g.adjIndex(u)
        while (i < g.adjIndex(u + 1)) {
          val v = g.adjVertex(i)
          val w = g.adjWeight(i)
          metrics.relaxed += 1; metrics.weightSum += w
          if (origin2(v) < 0) pq.push(d + w, v, origin)
          i += 1
        }
      }
    }
    (ls, Inf)
  }

  /** Point-to-point distance, stopping when `b` settles. It is the reference
    * re-scorer that tests and the benchmark check route lengths against, so
    * it stays a loop of its own (sharing only [[MinHeap]]) rather than a call
    * into `fromSource`: a bug in a search's loop cannot also hide in the check.
    */
  def distBetween(g: RoadGraph, a: Int, b: Int): Double = {
    if (a == b) return 0.0
    val dist = filled(g.numVertices, Inf)
    val done = new Array[Boolean](g.numVertices)
    val pq   = new MinHeap
    dist(a) = 0.0
    pq.push(0.0, a, a)
    while (pq.nonEmpty) {
      val d = pq.minKey
      val u = pq.minVertex
      pq.pop()
      if (!done(u)) {
        done(u) = true
        if (u == b) return d
        var i = g.adjIndex(u)
        while (i < g.adjIndex(u + 1)) {
          val v  = g.adjVertex(i)
          val nd = d + g.adjWeight(i)
          if (nd < dist(v)) { dist(v) = nd; pq.push(nd, v, a) }
          i += 1
        }
      }
    }
    Inf
  }

  // `Array.fill(n)(x)` without its generic path, which boxes every element.
  private def filled(n: Int, x: Double): Array[Double] = {
    val a = new Array[Double](n); java.util.Arrays.fill(a, x); a
  }
  private def filled(n: Int, x: Int): Array[Int] = {
    val a = new Array[Int](n); java.util.Arrays.fill(a, x); a
  }
}

/** Resumable nearest-neighbour search by network distance: yields the PoI
  * vertices satisfying `matches`, in nondecreasing distance from `source`,
  * one at a time. Backs both NNinit's greedy legs and the PNE baseline's
  * progressive neighbor exploration (rank-addressable via `get`).
  */
final class NearestNeighborSearch(
    g: RoadGraph,
    val source: Int,
    matches: Int => Boolean,
    metrics: SearchMetrics,
) {
  // Sparse state: an incremental NN search usually touches a small ball
  // around its source, so O(touched) maps beat O(|V|) arrays — and make the
  // PNE memory model of Table 6 reflect what the search actually retains.
  private val dist = mutable.HashMap.empty[Int, Double]
  private val pq   = new MinHeap(8) // PNE keeps many searches alive
  private val found = mutable.ArrayBuffer.empty[(Int, Double)]
  private var exhausted = false

  dist(source) = 0.0
  pq.push(0.0, source, source)

  /** Rough retained bytes of this search's live state (Table 6 model). */
  def stateBytes: Long = 48L * dist.size + 24L * found.size

  /** The `rank`-th (0-based) nearest matching vertex, extending the
    * underlying Dijkstra as far as needed; None once the component is
    * exhausted.
    */
  def get(rank: Int): Option[(Int, Double)] = {
    while (found.size <= rank && !exhausted) advance()
    if (rank < found.size) Some(found(rank)) else None
  }

  private def advance(): Unit = {
    var produced = false
    while (!produced && pq.nonEmpty) {
      val d = pq.minKey
      val u = pq.minVertex
      pq.pop()
      if (d == dist(u)) {
        metrics.settled += 1
        if (matches(u)) { found += ((u, d)); produced = true }
        var i = g.adjIndex(u)
        while (i < g.adjIndex(u + 1)) {
          val v  = g.adjVertex(i)
          val w  = g.adjWeight(i)
          metrics.relaxed += 1; metrics.weightSum += w
          val nd = d + w
          if (nd < dist.getOrElse(v, Dijkstra.Inf)) {
            dist(v) = nd; pq.push(nd, v, source)
          }
          i += 1
        }
      }
    }
    if (!produced) exhausted = true
  }
}
