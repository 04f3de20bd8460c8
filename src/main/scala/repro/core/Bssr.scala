package repro.core

import repro.graph.{MinHeap, RoadGraph, SearchMetrics}
import repro.semantics.CategoryForest

import scala.collection.mutable

/** Switches for BSSR's four optimization techniques (§5.3), so each can be
  * ablated independently (Tables 7–8, Figs. 4–5). `BssrOptions.none` is the
  * paper's "BSSR w/o Opt".
  */
final case class BssrOptions(
    useInit: Boolean = true,          // §5.3.1 NNinit
    proposedQueue: Boolean = true,    // §5.3.2 size/semantic/length priority
    useLowerBound: Boolean = true,    // §5.3.3 possible minimum distances
    useCache: Boolean = true,         // §5.3.4 on-the-fly caching
    maxSettled: Long = Long.MaxValue, // budget cap (the paper's one-month timeout)
)

object BssrOptions {
  val all: BssrOptions  = BssrOptions()
  val none: BssrOptions = BssrOptions(useInit = false, proposedQueue = false,
    useLowerBound = false, useCache = false)
}

/** Instrumentation for the evaluation tables. */
final class BssrMetrics {
  val search = new SearchMetrics   // settled/relaxed/weightSum over every search
  var firstSearchWeightSum: Double = 0.0 // Table 7 "weight sum" (first mDijkstra)
  var mDijkstraRuns: Long  = 0L          // Fig. 5 (number of Dijkstra executions)
  var cacheHits: Long      = 0L
  var peakQueueSize: Int   = 0           // Table 6 memory model input
  var routesEnqueued: Long = 0L
  var routesDequeued: Long = 0L
  var initTimeNanos: Long  = 0L          // Table 7 "response time" of NNinit
  var initRoutes: Int      = 0           // Table 7 "# of routes"
  var totalTimeNanos: Long = 0L
  var aborted: Boolean     = false       // budget cap hit — result inexact

  def settled: Long = search.settled
}

/** An answer, what its search counted, and the `QueryPlan` it ran on. */
final case class BssrResult(skyline: Vector[SRoute], metrics: BssrMetrics, plan: QueryPlan)

/** The bulk SkySR algorithm (paper §5): a branch-and-bound search that grows
  * all candidate sequenced routes simultaneously, expanding the best queued
  * route with a modified Dijkstra (Algorithm 2) that finds the PoI vertices
  * semantically matching the next category, and pruning with the thresholds
  * of Lemma 5.3 / Def. 5.4 (plus Lemma 5.8 when the lower-bound optimization
  * is on). Exactness: every pruned route is dominated by or equivalent to a
  * kept one (Theorem 3) — cross-checked against exhaustive enumeration in
  * the test suite.
  *
  * One instance per graph and thread: the modified Dijkstra's scratch state
  * (the stamped `dist`/`simPath` arrays and its `MinHeap`) belongs to
  * the instance and is reused across queries, so `run` calls on one instance
  * must not overlap.
  */
final class Bssr(
    val g: RoadGraph,
    val forest: CategoryForest,
    val opts: BssrOptions = BssrOptions.all,
) {

  private val Inf = Double.PositiveInfinity

  // --- versioned scratch state for the modified Dijkstra ------------------
  private val dist     = new Array[Double](g.numVertices)
  private val simPath  = new Array[Double](g.numVertices)
  private val stampArr = new Array[Int](g.numVertices)
  private var stamp    = 0
  private val pq       = new MinHeap(1024)

  /** Plain category-sequence query (the paper's §7 setting, plus the §6
    * destination variation when `query.destination` is set).
    */
  def run(query: Query): BssrResult =
    runSpecs(query.start, query.specs, query.destination)

  /** §6 complex category requirements: each position is a disjunction of
    * categories minus negations; a multi-category PoI is the same
    * generalization seen from the data side (the position's table takes the
    * max similarity, exactly the paper's proposal).
    */
  def runSpecs(start: Int, specs: Vector[PositionSpec],
               destination: Option[Int]): BssrResult = {
    val t0      = System.nanoTime()
    val metrics = new BssrMetrics
    val k       = specs.size

    // Similarity tables, NNinit seeds (§5.3.1, Optimization 1) and leg bounds
    // (§5.3.3, Optimization 3), every search counted in `metrics.search`.
    val plan = QueryPlan(g, forest, start, specs, destination, opts, metrics.search)
    import plan.{simPos, overlapping, lsSuf, lpSuf, maxNonPerfSuffix}
    val sky = new SkylineSet
    plan.seeds.foreach(sky.update)
    metrics.initTimeNanos = plan.initNanos
    metrics.initRoutes = plan.seeds.size

    // ---- pruning (Lemma 5.3 via Def. 5.4; Lemma 5.8 when bounds are on) --
    def shouldPrune(r: SRoute): Boolean = {
      val thr = sky.thresholdFor(r.semScore)
      if (thr.isInfinity) {
        // no upper bound applies; only an impossible completion prunes
        lsSuf(r.size).isInfinity
      } else if (r.length + lsSuf(r.size) >= thr) true
      else r.length + lpSuf(r.size) >= thr && {
        val devS = 1.0 - r.simProduct * maxNonPerfSuffix(r.size)
        sky.thresholdFor(devS) <= r.length
      }
    }

    // ---- Optimization 2: route priority (§5.3.2) -------------------------
    // Proposed: largest size first, then smallest semantic lower bound, then
    // smallest length. Conventional: smallest length (distance-based).
    // Comparisons are those of the 2.13 implicit Int/Double orderings
    // (`Integer.compare`, `java.lang.Double.compare`), without boxing.
    val ord: Ordering[SRoute] =
      if (opts.proposedQueue) (a: SRoute, b: SRoute) => {
        val bySize = Integer.compare(-b.size, -a.size)
        if (bySize != 0) bySize
        else {
          val bySem = java.lang.Double.compare(b.semScore, a.semScore)
          if (bySem != 0) bySem else java.lang.Double.compare(b.length, a.length)
        }
      }
      else (a: SRoute, b: SRoute) => java.lang.Double.compare(b.length, a.length)
    val qb = mutable.PriorityQueue.empty[SRoute](ord)

    def enqueue(r: SRoute): Unit = {
      qb.enqueue(r)
      metrics.routesEnqueued += 1
      if (qb.size > metrics.peakQueueSize) metrics.peakQueueSize = qb.size
    }

    /** True iff the candidate completed a route that entered the skyline. */
    def processCandidate(parent: SRoute, u: Int, d: Double, sim: Double): Boolean =
      !parent.contains(u) && {
        val rt = parent.extend(u, d, sim)
        if (rt.size == k) rt.toDestination(plan.distToDest).exists(sky.update) // rejects dominated/equiv
        else { if (!shouldPrune(rt)) enqueue(rt); false }
      }

    // ---- Optimization 4: on-the-fly cache (§5.3.4) -----------------------
    val cache = mutable.LongMap.empty[Bssr.CacheEntry]

    /** Modified Dijkstra (Algorithm 2): find PoIs semantically matching the
      * next category from the end of `parent`, honoring Lemma 5.5 (skip PoIs
      * reached through an at-least-as-similar PoI; never expand through a
      * perfect match) and breaking at the Lemma 5.3 radius.
      */
    def expand(parent: SRoute): Unit = {
      val posIdx = parent.size                     // 0-based next position
      val src    = if (parent.isEmpty) start else parent.end
      val sims   = simPos(posIdx)

      def radiusNow(): Double = {
        val thr = sky.thresholdFor(parent.semScore)
        if (thr.isInfinity) Inf
        else thr - parent.length - lsSuf(posIdx + 1)
      }

      val key = src.toLong * (k + 1) + posIdx
      val needed = radiusNow()
      val cached = cache.getOrNull(key)
      if (cached != null && cached.radius >= needed) {
        metrics.cacheHits += 1
        var i = 0
        while (i < cached.count) {
          val d = cached.dists(i)
          if (d < needed) processCandidate(parent, cached.pois(i), d, cached.sims(i))
          i += 1
        }
      } else {
        metrics.mDijkstraRuns += 1
        val found = new Bssr.CacheEntry
        // The radius moves only when the skyline gains a route.
        var rad = needed
        // Counted in locals and written back when the run ends; nothing the
        // run calls reads them, and the additions keep their order.
        var settled = metrics.search.settled
        var relaxed = metrics.search.relaxed
        var wsum    = metrics.search.weightSum
        val adjIndex  = g.adjIndex
        val adjVertex = g.adjVertex
        val adjWeight = g.adjWeight
        val lemma55   = !overlapping(posIdx)

        stamp += 1
        val st = stamp
        pq.clear()
        dist(src) = 0.0; simPath(src) = 0.0; stampArr(src) = st
        pq.push(0.0, src, src)
        var break = false
        while (pq.nonEmpty && !break) {
          val d = pq.minKey
          val u = pq.minVertex
          pq.pop()
          if (d == dist(u)) { // every entry is this run's: `stampArr(u) == st`
            // On break, everything strictly below the breaking entry's
            // distance has been settled, so `d` (≥ rad) is the sound —
            // and larger — radius to record for the cache.
            if (d >= rad) { break = true; found.radius = d }
            else {
              settled += 1
              val sim = g.poiSim(sims, u)
              if (sim > 0.0 && u != src && (!lemma55 || sim > simPath(u))) {
                found.add(u, d, sim)
                if (processCandidate(parent, u, d, sim)) rad = radiusNow()
              }
              if (!lemma55 || sim != 1.0) { // Lemma 5.5: perfect matches absorb the search
                val sp = math.max(simPath(u), sim)
                var i = adjIndex(u)
                val end = adjIndex(u + 1)
                while (i < end) {
                  val v = adjVertex(i)
                  val w = adjWeight(i)
                  relaxed += 1
                  wsum += w
                  val nd = d + w
                  if (stampArr(v) != st || nd < dist(v)) {
                    dist(v) = nd; simPath(v) = sp; stampArr(v) = st
                    pq.push(nd, v, src)
                  }
                  i += 1
                }
              }
            }
          }
        }
        metrics.search.settled = settled
        metrics.search.relaxed = relaxed
        metrics.search.weightSum = wsum
        if (opts.useCache && (cached == null || cached.radius < found.radius))
          cache(key) = found
      }
    }

    // ---- main loop (Algorithm 1) -----------------------------------------
    // The cache starts empty, so the first expansion always searches.
    val w0 = metrics.search.weightSum
    expand(SRoute.empty)
    metrics.firstSearchWeightSum = metrics.search.weightSum - w0
    while (qb.nonEmpty && !metrics.aborted) {
      val r = qb.dequeue()
      metrics.routesDequeued += 1
      if (!shouldPrune(r)) expand(r)
      if (metrics.search.settled > opts.maxSettled) metrics.aborted = true
    }

    metrics.totalTimeNanos = System.nanoTime() - t0
    BssrResult(sky.all, metrics, plan)
  }
}

object Bssr {

  /** One modified-Dijkstra run's matches in settle order, `count` of them in
    * the primitive `pois`/`dists`/`sims` arrays, and the radius it covered
    * (+∞ if the search ran out of vertices).
    */
  private final class CacheEntry {
    var radius: Double       = Double.PositiveInfinity
    var count: Int           = 0
    var pois: Array[Int]     = new Array[Int](8)
    var dists: Array[Double] = new Array[Double](8)
    var sims: Array[Double]  = new Array[Double](8)

    def add(poi: Int, dist: Double, sim: Double): Unit = {
      if (count == pois.length) {
        pois = java.util.Arrays.copyOf(pois, 2 * count)
        dists = java.util.Arrays.copyOf(dists, 2 * count)
        sims = java.util.Arrays.copyOf(sims, 2 * count)
      }
      pois(count) = poi; dists(count) = dist; sims(count) = sim
      count += 1
    }
  }
}
