package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.baselines.Exhaustive
import repro.data.Workload
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.collection.mutable

/** Randomized cross-checks: BSSR (every optimization combination) must equal
  * the exhaustive ground truth on many small graphs and workloads —
  * Theorem 3 ("BSSR guarantees the exact result"), empirically.
  */
class BssrSpec extends AnyFunSuite {

  private val forest = CategoryForest.foursquareLike

  private val graphCache = mutable.Map.empty[Long, (RoadGraph, Array[Array[Double]])]
  private def graphFor(seed: Long): (RoadGraph, Array[Array[Double]]) =
    graphCache.getOrElseUpdate(seed, {
      val g = TestUtil.tiny(seed)
      (g, Exhaustive.allPairs(g))
    })

  private val truthCache = mutable.Map.empty[(Long, Int), (Query, Vector[SRoute])]
  private def truthFor(seed: Long, len: Int): (Query, Vector[SRoute]) =
    truthCache.getOrElseUpdate((seed, len), {
      val (g, d) = graphFor(seed)
      val q = Workload.queries(g, forest, 1, len, seed * 31 + len, minPois = 1).head
      (q, Exhaustive.skySR(g, forest, q, d))
    })

  private val combos = Seq(
    "all"      -> BssrOptions.all,
    "none"     -> BssrOptions.none,
    "no-init"  -> BssrOptions(useInit = false),
    "no-queue" -> BssrOptions(proposedQueue = false),
    "no-lb"    -> BssrOptions(useLowerBound = false),
    "no-cache" -> BssrOptions(useCache = false),
  )

  for (seed <- 1L to 12L; len <- 2 to 3; (name, o) <- combos) {
    test(s"BSSR[$name] == exhaustive (seed=$seed, |Sq|=$len)") {
      val (g, _)     = graphFor(seed)
      val (q, truth) = truthFor(seed, len)
      val res = new Bssr(g, forest, o).run(q)
      assert(!res.metrics.aborted)
      TestUtil.assertSameSkyline(s"$name seed=$seed len=$len q=$q", res.skyline, truth)
      TestUtil.assertRouteScores(g, forest, q, res.skyline)
    }
  }

  // Integer weights with zero-weight arcs (`TestUtil.tieGraph`): distances,
  // leg lengths and route lengths tie throughout, in every search BSSR runs.
  for (seed <- 1L to 2L; len <- 2 to 3; (name, o) <- combos) {
    test(s"BSSR[$name] == exhaustive on integer weights with ties (seed=$seed, |Sq|=$len)") {
      val g = TestUtil.tieGraph(seed)
      val q = Workload.queries(g, forest, 1, len, seed * 31 + len, minPois = 1).head
      val res = new Bssr(g, forest, o).run(q)
      assert(!res.metrics.aborted)
      TestUtil.assertSameSkyline(s"$name ties seed=$seed len=$len q=$q", res.skyline,
        Exhaustive.skySR(g, forest, q))
      TestUtil.assertRouteScores(g, forest, q, res.skyline)
    }
  }

  for (seed <- 13L to 16L) {
    test(s"BSSR handles repeated/same-tree categories (distinct-PoI constraint binding, seed=$seed)") {
      val (g, d) = graphFor(seed)
      // two positions from the same tree, one of them repeated — Def. 3.4(iii)
      val leaves = forest.leaves.filter(c => g.poisByCategory.contains(c))
      val c0 = leaves(seed.toInt % leaves.length)
      val q  = Query(0, Vector(c0, c0, c0))
      val truth = Exhaustive.skySR(g, forest, q, d)
      val res = new Bssr(g, forest).run(q)
      TestUtil.assertSameSkyline(s"same-tree seed=$seed", res.skyline, truth)
      TestUtil.assertRouteScores(g, forest, q, res.skyline)
    }
  }

  for (seed <- 1L to 4L) {
    test(s"BSSR handles |Sq|=1 (seed=$seed)") {
      val (g, d) = graphFor(seed)
      val q1 = Workload.queries(g, forest, 1, 1, seed, minPois = 1).head
      val truth = Exhaustive.skySR(g, forest, q1, d)
      TestUtil.assertSameSkyline("len1", new Bssr(g, forest).run(q1).skyline, truth)
    }
  }

  test("skyline routes are mutually non-dominating and sorted by length") {
    val (g, _) = graphFor(1)
    val (q, _) = truthFor(1, 3)
    val sky = new Bssr(g, forest).run(q).skyline
    assert(sky.map(_.length) == sky.map(_.length).sorted)
    for (a <- sky; b <- sky if a != b)
      assert(!Skyline.dominatesOrEquiv(a.length, a.semScore, b.length, b.semScore))
  }

  test("the perfect-match OSR route is always present (semantic score 0)") {
    // Workload categories are PoI-rich, so a perfect sequenced route exists;
    // the skyline must contain exactly one route with semScore 0.
    for (seed <- 1L to 6L) {
      val (g, _) = graphFor(seed)
      val (q, _) = truthFor(seed, 3)
      val sky = new Bssr(g, forest).run(q).skyline
      assert(sky.count(_.semScore == 0.0) == 1, s"seed=$seed sky=$sky")
    }
  }

  test("optimizations reduce work: settled vertices with opts <= 2x without, typically far less") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 99L, minPois = 3).head
    val withOpt = new Bssr(g, forest, BssrOptions.all).run(q).metrics
    val without = new Bssr(g, forest, BssrOptions.none).run(q).metrics
    assert(withOpt.settled < without.settled,
      s"opt=${withOpt.settled} vs none=${without.settled}")
  }

  test("budget cap marks the run aborted") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 7L, minPois = 3).head
    val res = new Bssr(g, forest, BssrOptions(useInit = false, maxSettled = 10)).run(q)
    assert(res.metrics.aborted)
  }

  test("metrics: init ratio <= 1, runs/settles positive, peak queue tracked") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 42L, minPois = 3).head
    val m = new Bssr(g, forest).run(q).metrics
    assert(m.initRatio <= 1.0 + 1e-12)
    assert(m.initRoutes >= 1)
    assert(m.mDijkstraRuns >= 1)
    assert(m.settled > 0)
    assert(m.peakQueueSize >= 1)
    assert(m.firstSearchWeightSum > 0)
    assert(m.legS.length == 2 && m.legS.forall(_ >= 0))
    (0 until 2).foreach(i => assert(m.legP(i) >= m.legS(i), "l_p dominates l_s"))
  }

  test("deterministic: two runs produce identical skylines and counters") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 5L, minPois = 3).head
    val a = new Bssr(g, forest).run(q)
    val b = new Bssr(g, forest).run(q)
    assert(a.skyline == b.skyline)
    assert(a.metrics.settled == b.metrics.settled)
    assert(a.metrics.mDijkstraRuns == b.metrics.mDijkstraRuns)
  }

  test("on-the-fly cache changes no results but saves Dijkstra executions (Fig. 5 shape)") {
    val g = TestUtil.testSmall
    var hits = 0L
    for (q <- Workload.queries(g, forest, 5, 4, 17L, minPois = 3)) {
      val withC = new Bssr(g, forest, BssrOptions.all).run(q)
      val noC   = new Bssr(g, forest, BssrOptions(useCache = false)).run(q)
      TestUtil.assertSameSkyline("cache", withC.skyline, noC.skyline)
      assert(withC.metrics.mDijkstraRuns <= noC.metrics.mDijkstraRuns)
      hits += withC.metrics.cacheHits
    }
    assert(hits > 0, "expected at least one cache hit across the workload")
  }
}
