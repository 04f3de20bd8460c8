package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class SkylineSpec extends AnyFunSuite {

  private def naiveSkyline(rs: Seq[SRoute]): Set[(Double, Double)] = {
    val pts = rs.map(r => (r.length, r.semScore))
    pts.filter { p =>
      !pts.exists(q => Skyline.dominates(q._1, q._2, p._1, p._2))
    }.toSet
  }

  private def randRoutes(rnd: Random, n: Int): Seq[SRoute] =
    Seq.fill(n)(SRoute(Vector(rnd.nextInt(100)),
      (rnd.nextInt(20) + 1).toDouble, 1.0 - rnd.nextInt(5) * 0.25))

  test("dominance: strict in at least one dimension") {
    assert(Skyline.dominates(1, 1, 2, 1))
    assert(Skyline.dominates(1, 1, 1, 2))
    assert(!Skyline.dominates(1, 1, 1, 1)) // equivalence is not dominance
    assert(!Skyline.dominates(2, 0, 1, 1))
    assert(Skyline.dominatesOrEquiv(1, 1, 1, 1))
  }

  // The test names predate the fold: `SkylineSet.of` replaced the
  // sort-then-scan `Skyline.of` with the same contract.
  for (seed <- 1L to 20L) {
    test(s"Skyline.of matches the O(n²) definition, one route per point (seed $seed)") {
      val rnd = new Random(seed)
      val rs  = randRoutes(rnd, 60)
      val sky = SkylineSet.of(rs)
      // exactly the non-dominated score points, each exactly once
      assert(sky.map(r => (r.length, r.semScore)).toSet == naiveSkyline(rs))
      assert(sky.map(r => (r.length, r.semScore)).distinct.size == sky.size)
      // each point's route is the first in input order with that point
      sky.foreach(r => assert(rs.find(q => q.length == r.length && q.semScore == r.semScore).get eq r))
      // sorted by length, semantic strictly decreasing
      assert(sky.map(_.length) == sky.map(_.length).sorted)
      assert(sky.map(_.semScore) == sky.map(_.semScore).sorted.reverse)
    }
  }

  test("Skyline.of of empty and singleton") {
    assert(SkylineSet.of(Nil).isEmpty)
    val r = SRoute(Vector(1), 2.0, 0.5)
    assert(SkylineSet.of(Seq(r)) == Vector(r))
  }

  for (seed <- 1L to 20L) {
    test(s"SkylineSet incremental updates equal batch skyline (seed $seed)") {
      val rnd = new Random(seed + 1000)
      val rs  = randRoutes(rnd, 60)
      val set = new SkylineSet
      rs.foreach(set.update)
      assert(set.all.map(r => (r.length, r.semScore)).toSet == naiveSkyline(rs))
    }
  }

  test("SkylineSet.update returns false for dominated or equivalent routes") {
    val set = new SkylineSet
    assert(set.update(SRoute(Vector(1), 10.0, 1.0)))   // (10, 0)
    assert(!set.update(SRoute(Vector(2), 10.0, 1.0)))  // equivalent
    assert(!set.update(SRoute(Vector(3), 11.0, 1.0)))  // dominated
    assert(set.update(SRoute(Vector(4), 5.0, 0.5)))    // incomparable (5, 0.5)
    assert(set.update(SRoute(Vector(5), 4.0, 0.5)))    // dominates previous
    assert(set.size == 2)
    assert(set.all.map(_.pois.head).toSet == Set(1, 5))
  }

  test("thresholdFor implements Eq. (3)") {
    val set = new SkylineSet
    set.update(SRoute(Vector(1), 15.0, 1.0)) // (15, 0)
    set.update(SRoute(Vector(2), 14.5, 0.5)) // (14.5, 0.5)
    assert(set.thresholdFor(0.0) == 15.0)
    assert(set.thresholdFor(0.4) == 15.0)
    assert(set.thresholdFor(0.5) == 14.5)
    assert(set.thresholdFor(0.9) == 14.5)
  }

  test("thresholdFor is +Inf on an empty set or when no member qualifies") {
    val set = new SkylineSet
    assert(set.thresholdFor(1.0).isInfinity)
    set.update(SRoute(Vector(1), 3.0, 0.25)) // sem 0.75
    assert(set.thresholdFor(0.5).isInfinity)
    assert(set.thresholdFor(0.75) == 3.0)
  }

  test("thresholdFor is monotone nonincreasing in the bound") {
    val rnd = new Random(7)
    val set = new SkylineSet
    randRoutes(rnd, 40).foreach(set.update)
    val xs = (0 to 10).map(_ / 10.0)
    val ts = xs.map(set.thresholdFor)
    assert(ts.zip(ts.tail).forall { case (a, b) => a >= b })
  }

  test("SRoute extend accumulates scores left-to-right") {
    val r = SRoute.empty.extend(3, 2.0, 1.0).extend(5, 1.5, 0.5)
    assert(r.pois == Vector(3, 5))
    assert(r.length == 3.5)
    assert(r.semScore == 0.5)
    assert(r.contains(3) && !r.contains(4))
    assert(r.end == 5 && r.size == 2)
  }
}
