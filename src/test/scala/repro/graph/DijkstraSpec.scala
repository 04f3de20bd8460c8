package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.Datasets

import scala.util.Random

/** Dijkstra toolkit vs. brute force (Floyd–Warshall) on small random graphs. */
class DijkstraSpec extends AnyFunSuite {

  private def floyd(g: RoadGraph): Array[Array[Double]] = {
    val n = g.numVertices
    val d = Array.fill(n, n)(Double.PositiveInfinity)
    (0 until n).foreach(i => d(i)(i) = 0.0)
    for (u <- 0 until n; i <- g.adjIndex(u) until g.adjIndex(u + 1)) {
      val v = g.adjVertex(i)
      if (g.adjWeight(i) < d(u)(v)) { d(u)(v) = g.adjWeight(i); d(v)(u) = g.adjWeight(i) }
    }
    for (m <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(m) + d(m)(j) < d(i)(j)) d(i)(j) = d(i)(m) + d(m)(j)
    d
  }

  private def smallGraph(seed: Long): RoadGraph = Datasets.tiny(seed, nRoad = 40, nPois = 20)

  // Integer weights in 0..2: zero-weight arcs and equal-length paths, where
  // a pop settles its vertex iff it carries the vertex's label.
  private val tieGraph = TestUtil.tieGraph(1, nRoad = 40, nPois = 20)

  for ((name, g) <- (1L to 8L).map(seed => s"seed $seed" -> smallGraph(seed)) :+ ("ties" -> tieGraph)) {
    test(s"fromSource matches Floyd–Warshall ($name)") {
      val fw = floyd(g)
      for (s <- 0 until g.numVertices by 7) {
        val d = Dijkstra.fromSource(g, s)
        for (v <- 0 until g.numVertices)
          assert(math.abs(d(v) - fw(s)(v)) < 1e-9, s"src=$s v=$v")
      }
    }
  }

  for (seed <- 1L to 8L) {
    test(s"bounded fromSource: within bound matches, beyond bound is Inf (seed $seed)") {
      val g     = smallGraph(seed)
      val full  = Dijkstra.fromSource(g, 3)
      val bound = full.filter(_.isFinite).sorted.apply(g.numVertices / 2)
      val b     = Dijkstra.fromSource(g, 3, bound)
      for (v <- 0 until g.numVertices) {
        if (full(v) <= bound) assert(b(v) == full(v))
        else assert(b(v) > bound) // tentative frontier value or Inf — never under-reports
      }
    }
  }

  for (seed <- 1L to 8L) {
    test(s"multiSourceMinDist matches brute force over distinct pairs (seed $seed)") {
      val g   = smallGraph(seed)
      val fw  = floyd(g)
      val rnd = new Random(seed)
      val srcs  = Array.fill(6)(rnd.nextInt(g.numVertices)).distinct
      val dests = Array.fill(6)(rnd.nextInt(g.numVertices)).distinct.toSet
      // Two nested tiers: the perfect matches are a subset of the matches.
      val perfect = dests.filter(_ => rnd.nextBoolean())
      def sim(v: Int) = if (perfect(v)) 1.0 else if (dests(v)) 0.5 else 0.0
      def brute(ds: Set[Int]) = (for { s <- srcs; d <- ds if s != d } yield fw(s)(d))
        .foldLeft(Double.PositiveInfinity)(math.min)
      def same(got: Double, want: Double) =
        math.abs(got - want) < 1e-9 || (got.isInfinity && want.isInfinity)
      val (ls, lp) = Dijkstra.multiSourceMinDist(g, srcs, sim)
      assert(same(ls, brute(dests)), s"l_s = $ls")
      assert(same(lp, brute(perfect)), s"l_p = $lp")
    }
  }

  private def oneTier(set: Set[Int]): Int => Double = v => if (set(v)) 1.0 else 0.0

  test("multiSourceMinDist excludes source==dest pairs even when sets overlap") {
    // path graph 0-1-2 with weights 1, 1; sources {0,1}, dests {1}
    val g = RoadGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)), Array(-1, -1, -1))
    val d = Dijkstra.multiSourceMinDist(g, Array(0, 1), oneTier(Set(1)))
    assert(d == ((1.0, 1.0))) // from 0, not the trivial 0.0 from 1 itself
  }

  test("multiSourceMinDist with overlapping sets picks the closest *other* source") {
    // 0 -5- 1 -2- 2 ; sources {1, 2}, dests {1}: best distinct pair is 2->1 = 2
    val g = RoadGraph.fromEdges(3, Seq((0, 1, 5.0), (1, 2, 2.0)), Array(-1, -1, -1))
    assert(Dijkstra.multiSourceMinDist(g, Array(1, 2), oneTier(Set(1))) == ((2.0, 2.0)))
  }

  test("multiSourceMinDist returns Inf when no destination is reachable") {
    val g = RoadGraph.fromEdges(2, Seq((0, 1, 1.0)), Array(-1, -1))
    val inf = Double.PositiveInfinity
    assert(Dijkstra.multiSourceMinDist(g, Array(0), oneTier(Set.empty)) == ((inf, inf)))
    assert(Dijkstra.multiSourceMinDist(g, Array.empty[Int], oneTier(Set(0, 1))) == ((inf, inf)))
  }

  for (seed <- 1L to 6L) {
    test(s"distBetween matches Floyd–Warshall (seed $seed)") {
      val g   = smallGraph(seed)
      val fw  = floyd(g)
      val rnd = new Random(seed + 100)
      (0 until 10).foreach { _ =>
        val a = rnd.nextInt(g.numVertices); val b = rnd.nextInt(g.numVertices)
        assert(math.abs(Dijkstra.distBetween(g, a, b) - fw(a)(b)) < 1e-9)
      }
    }
  }

  for ((name, g, src) <- (1L to 6L).map(seed => (s"seed $seed", smallGraph(seed), seed.toInt)) :+
      (("ties", tieGraph, 0))) {
    test(s"NearestNeighborSearch yields matches in nondecreasing distance order ($name)") {
      val fw  = floyd(g)
      val m   = new SearchMetrics
      val nns = new NearestNeighborSearch(g, src, g.isPoi, m)
      val got = Iterator.from(0).map(nns.get).takeWhile(_.isDefined).map(_.get).toVector
      // run to exhaustion, the search settled each reachable vertex once
      assert(m.settled == fw(src).count(_.isFinite).toLong)
      // distances are correct and sorted
      got.foreach { case (v, d) => assert(math.abs(d - fw(src)(v)) < 1e-9) }
      assert(got.map(_._2) == got.map(_._2).sorted)
      // and complete: every reachable PoI appears exactly once
      val expect = g.pois.filter(p => fw(src)(p).isFinite).toSet
      assert(got.map(_._1).toSet == expect)
      assert(got.map(_._1).distinct.size == got.size)
    }
  }

  test("NearestNeighborSearch get is idempotent and rank-addressable") {
    val g   = smallGraph(3)
    val nns = new NearestNeighborSearch(g, 0, g.isPoi)
    val a   = nns.get(4)
    val b   = nns.get(4)
    assert(a == b)
    assert(nns.get(0).get._2 <= nns.get(4).get._2)
  }

  for ((suffix, g) <- Seq("" -> smallGraph(1), " (ties)" -> tieGraph)) {
    test(s"metrics count settled vertices and relaxed edge weight$suffix") {
      val m = new SearchMetrics
      Dijkstra.fromSource(g, 0, metrics = m)
      assert(m.settled == g.numVertices.toLong) // connected graph: each settled once
      assert(m.relaxed == g.numDirectedEdges.toLong)
      assert(math.abs(m.weightSum - 2 * g.totalWeight) < 1e-9)
    }
  }
}
