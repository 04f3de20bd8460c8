package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.baselines.Exhaustive
import repro.data.{Datasets, Workload}
import repro.graph.Dijkstra
import repro.semantics.CategoryForest

/** The §6 variations: directed graphs, destinations, complex category
  * requirements (disjunction/negation ≙ multi-category PoIs), and the
  * unordered skyline trip planning query — each cross-checked against the
  * generalized exhaustive ground truth.
  */
class VariationsSpec extends AnyFunSuite {

  private val forest = CategoryForest.foursquareLike

  test("transpose reverses distances; undirected graphs are self-transpose") {
    val dg = TestUtil.directedGraph(1)
    val dFwd = Dijkstra.fromSource(dg, 5)
    val dRev = Dijkstra.fromSource(dg.transpose, 5)
    // dRev(v) = distance from v to 5 in the directed graph
    for (v <- 0 until dg.numVertices by 7)
      assert(math.abs(dRev(v) - Dijkstra.fromSource(dg, v).apply(5)) < 1e-9)
    val ug = Datasets.tiny(2, nRoad = 50, nPois = 20)
    val a  = Dijkstra.fromSource(ug, 3)
    val b  = Dijkstra.fromSource(ug.transpose, 3)
    assert(a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-12 })
  }

  test("directed distances are genuinely asymmetric in the fixture") {
    val dg = TestUtil.directedGraph(1)
    val asym = (0 until dg.numVertices).exists { v =>
      v != 0 && math.abs(Dijkstra.fromSource(dg, 0)(v) -
        Dijkstra.fromSource(dg, v)(0)) > 1e-9
    }
    assert(asym)
  }

  for (seed <- 1L to 6L) {
    test(s"directed graphs: BSSR == exhaustive (seed=$seed)") {
      val dg = TestUtil.directedGraph(seed)
      val q  = Workload.queries(dg, forest, 1, 3, seed * 3, minPois = 1).head
      val truth = Exhaustive.skySR(dg, forest, q)
      val res = new Bssr(dg, forest).run(q)
      TestUtil.assertSameSkyline(s"directed seed=$seed", res.skyline, truth)
    }
  }

  for (seed <- 1L to 6L) {
    test(s"destination: BSSR == exhaustive with the final leg added (seed=$seed)") {
      val g = Datasets.tiny(seed, nRoad = 80, nPois = 40)
      val base = Workload.queries(g, forest, 1, 3, seed * 7, minPois = 1).head
      val q = base.copy(destination = Some((seed * 13 % g.numVertices).toInt))
      val truth = Exhaustive.skySR(g, forest, q)
      val res = new Bssr(g, forest).run(q)
      TestUtil.assertSameSkyline(s"dest seed=$seed", res.skyline, truth)
    }
  }

  test("destination on a directed graph uses to-destination distances") {
    val dg = TestUtil.directedGraph(3)
    val q = Workload.queries(dg, forest, 1, 2, 5L, minPois = 1).head
      .copy(destination = Some(1))
    TestUtil.assertSameSkyline("directed+dest",
      new Bssr(dg, forest).run(q).skyline, Exhaustive.skySR(dg, forest, q))
  }

  test("destination never shortens routes; at the destination vertex itself it is a no-op") {
    val g = Datasets.tiny(4, nRoad = 80, nPois = 40)
    val base = Workload.queries(g, forest, 1, 2, 9L, minPois = 1).head
    val withD = new Bssr(g, forest).run(base.copy(destination = Some(base.start))).skyline
    val without = new Bssr(g, forest).run(base).skyline
    // round-trip back to the start only adds length
    withD.foreach(r => assert(r.length >= without.map(_.length).min - 1e-9))
  }

  for (seed <- 1L to 6L) {
    test(s"complex requirements: disjunction + negation == exhaustive (seed=$seed)") {
      val g = Datasets.tiny(seed, nRoad = 80, nPois = 40)
      val q = Workload.queries(g, forest, 1, 2, seed * 11, minPois = 1).head
      // position 0: "category A or category B"; position 1: tree match minus
      // one negated sibling
      val other = Workload.queries(g, forest, 1, 2, seed * 17 + 1, minPois = 1)
        .head.categories.head
      val negated = forest.leaves.find(c =>
        forest.sameTree(c, q.categories(1)) && c != q.categories(1))
      val specs = Vector(
        PositionSpec(Vector(q.categories(0), other).distinct),
        PositionSpec(Vector(q.categories(1)), noneOf = negated.toSet))
      val truth = Exhaustive.skySRSpecs(g, forest, q.start, specs)
      val res = new Bssr(g, forest).runSpecs(q.start, specs)
      TestUtil.assertSameSkyline(s"specs seed=$seed", res.skyline, truth)
    }
  }

  test("negation removes the negated category's PoIs from every returned route") {
    val g = Datasets.tiny(2, nRoad = 80, nPois = 40)
    val q = Workload.queries(g, forest, 1, 2, 7L, minPois = 1).head
    val neg = forest.leaves.filter(forest.sameTree(_, q.categories(1))).toSet
    val specs = Vector(
      PositionSpec.simple(q.categories(0)),
      PositionSpec(Vector(q.categories(1)), noneOf = neg - q.categories(1)))
    val res = new Bssr(g, forest).runSpecs(q.start, specs)
    res.skyline.foreach { r =>
      assert(!((neg - q.categories(1)).contains(g.poiCategory(r.pois(1)))))
    }
  }

  test("a pure-disjunction position over a whole tree equals querying the tree root semantics") {
    val g = Datasets.tiny(5, nRoad = 80, nPois = 40)
    val q = Workload.queries(g, forest, 1, 2, 13L, minPois = 1).head
    val specs = Vector(PositionSpec.simple(q.categories(0)), PositionSpec.simple(q.categories(1)))
    TestUtil.assertSameSkyline("simple-spec-equivalence",
      new Bssr(g, forest).runSpecs(q.start, specs).skyline,
      new Bssr(g, forest).run(q).skyline)
  }

  for (seed <- 1L to 5L) {
    test(s"unordered skyline trip planning == exhaustive over all orders (seed=$seed)") {
      val g = Datasets.tiny(seed, nRoad = 60, nPois = 30)
      val q = Workload.queries(g, forest, 1, 3, seed * 19, minPois = 1).head
      val truth = Exhaustive.skySRUnordered(g, forest, q.start, q.categories)
      val got = UnorderedSkySR.run(g, forest, q.start, q.categories)
      TestUtil.assertSameSkyline(s"unordered seed=$seed", got, truth)
    }
  }

  test("unordered skyline is never worse than the fixed-order skyline") {
    val g = Datasets.tiny(7, nRoad = 60, nPois = 30)
    val q = Workload.queries(g, forest, 1, 3, 23L, minPois = 1).head
    val fixed = new Bssr(g, forest).run(q).skyline
    val free  = UnorderedSkySR.run(g, forest, q.start, q.categories)
    // every fixed-order route is dominated by or equivalent to something free
    fixed.foreach { r =>
      assert(free.exists(f =>
        Skyline.dominatesOrEquiv(f.length, f.semScore, r.length, r.semScore)))
    }
  }
}
