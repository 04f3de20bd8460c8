package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{PositionSpec, Query}
import repro.data.Workload
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.collection.mutable

/** The OSR baselines of Sharifzadeh et al. (Dij, PNE) and the iterated-OSR
  * naive SkySR built on them, validated against brute force.
  */
class OsrSpec extends AnyFunSuite {

  private val forest = CategoryForest.foursquareLike

  /** A seeded tiny graph, or its integer-weight twin (`TestUtil.tieGraph`)
    * with `ties`, and its all-pairs distances.
    */
  private val cache = mutable.Map.empty[(Long, Boolean), (RoadGraph, Array[Array[Double]])]
  private def graphFor(seed: Long, ties: Boolean = false) =
    cache.getOrElseUpdate((seed, ties), {
      val g =
        if (ties) TestUtil.tieGraph(seed, nRoad = 80, nPois = 40)
        else TestUtil.tiny(seed, nRoad = 80, nPois = 40)
      (g, Exhaustive.allPairs(g))
    })

  /** Each position's similarity table with the entries below its threshold
    * zeroed, as `IterativeOsr` builds them for one run.
    */
  private def tablesFor(q: Query, mins: Seq[Double]): Array[Array[Double]] =
    mins.zipWithIndex.map { case (h, i) =>
      Array.tabulate(forest.size) { c =>
        val s = forest.sim(q.categories(i), c)
        if (s >= h) s else 0.0
      }
    }.toArray

  /** Brute-force optimum under per-position similarity thresholds. */
  private def bruteOsr(g: RoadGraph, d: Array[Array[Double]], q: Query,
                       mins: Seq[Double]): Option[Double] = {
    val routes = Exhaustive.allRoutes(g, forest, q, d).filter { r =>
      r.pois.zipWithIndex.forall { case (p, i) =>
        forest.sim(q.categories(i), g.poiCategory(p)) >= mins(i)
      }
    }
    if (routes.isEmpty) None else Some(routes.map(_.length).min)
  }

  for (seed <- 1L to 10L; useDij <- Seq(true, false)) {
    val name = if (useDij) "Dij" else "PNE"
    test(s"$name OSR finds the optimal sequenced route under thresholds (seed=$seed)") {
      val (g, d) = graphFor(seed)
      val q = Workload.queries(g, forest, 1, 3, seed * 7, minPois = 1).head
      for (mins <- Seq(Seq(1.0, 1.0, 1.0), Seq(0.5, 1.0, 0.5), Seq(0.1, 0.1, 0.1))) {
        val m   = new BaselineMetrics
        val ts  = tablesFor(q, mins)
        val got =
          if (useDij) OsrDijkstra.osr(g, q.start, ts, m, Long.MaxValue)
          else OsrPne.osr(g, q.start, ts, m, Long.MaxValue)
        val want = bruteOsr(g, d, q, mins)
        (got, want) match {
          case (Some(r), Some(l)) =>
            assert(math.abs(r.length - l) < 1e-9, s"mins=$mins got=${r.length} want=$l")
            // returned route actually satisfies the thresholds
            r.pois.zipWithIndex.foreach { case (p, i) =>
              assert(forest.sim(q.categories(i), g.poiCategory(p)) >= mins(i))
            }
          case (None, None) => succeed
          case other => fail(s"mins=$mins mismatch: $other")
        }
      }
    }
  }

  // With integer weights (`ties`) every length is exact, so the points are
  // compared bit for bit.
  for ((ties, seed) <- (1L to 8L).map(false -> _) ++ (1L to 2L).map(true -> _);
       useDij <- Seq(true, false); len <- 2 to 3) {
    val name  = if (useDij) "Dij" else "PNE"
    val input = if (ties) s"ties, seed=$seed" else s"seed=$seed"
    test(s"iterated-$name SkySR == exhaustive ($input, |Sq|=$len)") {
      val (g, d) = graphFor(seed, ties)
      val q     = Workload.queries(g, forest, 1, len, seed * 13 + len, minPois = 1).head
      val truth = Exhaustive.skySR(g, forest, q, d)
      val m     = new BaselineMetrics
      val got   = IterativeOsr.skySR(g, forest, q, useDij, m)
      val tol   = if (ties) 0.0 else 1e-9
      assert(!m.aborted)
      TestUtil.assertSameSkyline(s"$name $input", got, truth, tol)
      TestUtil.assertRouteScores(g, forest, q, got, tol)
      assert(m.osrRuns == TestUtil.comboCount(g, forest, q))
    }
  }

  private def simLevels(g: RoadGraph, q: Query): Array[Array[Double]] =
    IterativeOsr.simLevels(g, q.specs.toArray.map(PositionSpec.simTable(forest, _)))

  test("simLevels are distinct, descending, positive") {
    val (g, _) = graphFor(1)
    for (c <- forest.leaves) {
      val ls = simLevels(g, Query(0, Vector(c))).head.toSeq
      assert(ls == ls.distinct)
      assert(ls == ls.sorted.reverse)
      assert(ls.forall(x => x > 0 && x <= 1))
      assert(ls.contains(1.0) == g.poisByCategory.contains(c))
    }
  }

  test("combo count is the product of per-position similarity levels") {
    val (g, _) = graphFor(1)
    val q = Workload.queries(g, forest, 1, 3, 3L, minPois = 1).head
    val levels = simLevels(g, q)
    assert(TestUtil.comboCount(g, forest, q) == levels.map(_.length.toLong).product)
    levels.foreach(ls => assert(ls.nonEmpty && ls.head == 1.0))
  }

  test("combo count grows exponentially with |Sq| (the naive blow-up of §4)") {
    val (g, _) = graphFor(2)
    // fix one category with >= 2 similarity levels and grow the sequence
    val c = forest.leaves.find(c => TestUtil.comboCount(g, forest, Query(0, Vector(c))) >= 2).get
    val counts = (2 to 4).map(len => TestUtil.comboCount(g, forest, Query(0, Vector.fill(len)(c))))
    assert(counts(0) < counts(1) && counts(1) < counts(2))
  }

  test("budget cap aborts the iterated OSR") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 3L, minPois = 3).head
    for (useDij <- Seq(true, false)) {
      val m = new BaselineMetrics
      IterativeOsr.skySR(g, forest, q, useDij, m, maxSettled = 50)
      assert(m.aborted, s"useDij = $useDij")
    }
  }

  test("Dij stores routes in its queue: peak queue far larger than PNE's (Table 6 shape)") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 3, 21L, minPois = 3).head
    val md = new BaselineMetrics
    val mp = new BaselineMetrics
    IterativeOsr.skySR(g, forest, q, useDij = true, md)
    IterativeOsr.skySR(g, forest, q, useDij = false, mp)
    assert(md.peakQueueSize > mp.peakQueueSize)
  }
}
