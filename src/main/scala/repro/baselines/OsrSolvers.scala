package repro.baselines

import repro.core.SRoute
import repro.graph.{NearestNeighborSearch, RoadGraph, SearchMetrics}

import scala.collection.mutable

/** Shared instrumentation for the baseline algorithms. */
final class BaselineMetrics {
  val search = new SearchMetrics
  var peakQueueSize: Int = 0
  var peakNnBytes: Long = 0L  // PNE: peak retained bytes of the live NN searches
  var osrRuns: Long = 0L
  var totalTimeNanos: Long = 0L
  var aborted: Boolean = false
}

/** Thrown internally when a budget cap is exceeded (the paper's runs that
  * "were not finished after a month" — we cap and report `>cap`).
  */
final class BudgetExceeded extends RuntimeException

/** The Dijkstra-based OSR solution [16]: one Dijkstra over the layered
  * product graph (road network × sequence progress). Queue entries carry
  * their partial route — which is exactly why the paper's Table 6 shows Dij
  * needing an order of magnitude more memory than PNE/BSSR.
  *
  * Both OSR solvers take one per-category similarity table per sequence
  * position, and vertex `v` matches position `i` iff
  * `g.poiSim(tables(i), v) > 0.0` — the rule of BSSR and NNinit. With every
  * entry below 1.0 zeroed this is the classic perfect-match OSR of
  * Sharifzadeh et al.; `IterativeOsr` zeroes the entries below each run's
  * similarity levels (DESIGN.md §6).
  */
object OsrDijkstra {

  def osr(
      g: RoadGraph,
      start: Int,
      tables: Array[Array[Double]],
      metrics: BaselineMetrics,
      maxSettled: Long = Long.MaxValue,
  ): Option[SRoute] = {
    val k = tables.length
    final case class Entry(dist: Double, vertex: Int, layer: Int, route: SRoute)
    val ord = Ordering.by((e: Entry) => e.dist).reverse
    val pq  = mutable.PriorityQueue.empty[Entry](ord)
    // settled flags per (vertex, layer)
    val done = Array.fill(k + 1)(new Array[Boolean](g.numVertices))
    pq.enqueue(Entry(0.0, start, 0, SRoute.empty))
    while (pq.nonEmpty) {
      if (pq.size > metrics.peakQueueSize) metrics.peakQueueSize = pq.size
      val e = pq.dequeue()
      if (!done(e.layer)(e.vertex)) {
        done(e.layer)(e.vertex) = true
        metrics.search.settled += 1
        if (metrics.search.settled > maxSettled) throw new BudgetExceeded
        if (e.layer == k) return Some(e.route)
        val sim = g.poiSim(tables(e.layer), e.vertex)
        if (sim > 0.0 && !e.route.contains(e.vertex)) {
          val r2 = e.route.extend(e.vertex, e.dist - e.route.length, sim)
          pq.enqueue(Entry(e.dist, e.vertex, e.layer + 1, r2))
        }
        var i = g.adjIndex(e.vertex)
        while (i < g.adjIndex(e.vertex + 1)) {
          val v = g.adjVertex(i)
          val w = g.adjWeight(i)
          metrics.search.relaxed += 1
          metrics.search.weightSum += w
          if (!done(e.layer)(v)) pq.enqueue(Entry(e.dist + w, v, e.layer, e.route))
          i += 1
        }
      }
    }
    None
  }
}

/** The Progressive Neighbor Exploration OSR solution [16]: a best-first
  * search over partial routes ordered by length, where each popped route
  * spawns (a) its extension with the nearest matching PoI for the next
  * position and (b) its sibling — the parent extended with the next-nearest
  * match — via resumable nearest-neighbour Dijkstras.
  */
object OsrPne {

  /** Resumable NN searches shared across the routes of one OSR run, keyed by
    * source vertex and position (each position has its own table).
    * `IterativeOsr` gives every run a new pool: the runs' tables differ.
    */
  final class SearchPool(g: RoadGraph, metrics: BaselineMetrics) {
    private val pool = mutable.HashMap.empty[(Int, Int), NearestNeighborSearch]
    def of(source: Int, pos: Int, table: Array[Double]): NearestNeighborSearch =
      pool.getOrElseUpdate((source, pos),
        new NearestNeighborSearch(g, source, g.poiSim(table, _) > 0.0, metrics.search))
    def totalBytes: Long = pool.valuesIterator.map(_.stateBytes).sum
  }

  def osr(
      g: RoadGraph,
      start: Int,
      tables: Array[Array[Double]],
      metrics: BaselineMetrics,
      maxSettled: Long = Long.MaxValue,
  ): Option[SRoute] = {
    val k    = tables.length
    val pool = new SearchPool(g, metrics)

    // Entry: partial route, the NN rank its last PoI was drawn at and the
    // route it extends (for sibling generation).
    final case class Entry(route: SRoute, rank: Int, parent: SRoute)
    val ord = Ordering.by((e: Entry) => e.route.length).reverse
    val pq  = mutable.PriorityQueue.empty[Entry](ord)

    /** First NN rank >= from whose PoI is not already on `route`. */
    def nextValid(source: Int, pos: Int, exclude: SRoute, from: Int): Option[(Int, Int, Double)] = {
      val nns = pool.of(source, pos, tables(pos))
      var r = from
      while (true) {
        if (metrics.search.settled > maxSettled) throw new BudgetExceeded
        nns.get(r) match {
          case Some((p, d)) =>
            if (!exclude.contains(p)) return Some((r, p, d))
            r += 1
          case None => return None
        }
      }
      None
    }

    def pushExtension(parent: SRoute, fromRank: Int): Unit = {
      val pos = parent.size
      val src = if (parent.isEmpty) start else parent.end
      nextValid(src, pos, parent, fromRank).foreach { case (r, p, d) =>
        pq.enqueue(Entry(parent.extend(p, d, g.poiSim(tables(pos), p)), r, parent))
        if (pq.size > metrics.peakQueueSize) metrics.peakQueueSize = pq.size
      }
    }

    try {
      pushExtension(SRoute.empty, 0)
      while (pq.nonEmpty) {
        val e = pq.dequeue()
        if (e.route.size == k) return Some(e.route)
        // child: first valid NN for the next position
        pushExtension(e.route, 0)
        // sibling: the parent's next valid NN after this route's rank
        pushExtension(e.parent, e.rank + 1)
      }
      None
    } finally metrics.peakNnBytes = math.max(metrics.peakNnBytes, pool.totalBytes)
  }
}
