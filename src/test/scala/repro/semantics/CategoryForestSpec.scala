package repro.semantics

import org.scalatest.funsuite.AnyFunSuite

class CategoryForestSpec extends AnyFunSuite {

  private val fs  = CategoryForest.foursquareLike
  private val cal = CategoryForest.generated(49, 3, 3)

  private def roots(f: CategoryForest): Array[Int] = f.categories.filter(f.isRoot).toArray

  /** Ancestors of `c` from `c` up to (and including) its root. */
  private def ancestorsOf(f: CategoryForest, c: Int): List[Int] = {
    var cur = c
    val b   = List.newBuilder[Int]
    while (cur >= 0) { b += cur; cur = f.parent(cur) }
    b.result()
  }

  test("foursquare-like forest has 10 trees") {
    assert(roots(fs).length == 10)
  }

  test("generated Cal forest has 49 trees and 637 categories (≈ paper's 635)") {
    assert(roots(cal).length == 49)
    assert(cal.size == 49 * 13)
  }

  test("generated forest: every non-leaf has exactly 3 children") {
    cal.categories.foreach { c =>
      assert(cal.childrenOf(c).isEmpty || cal.childrenOf(c).length == 3)
    }
  }

  test("generated forest height is 3") {
    assert(cal.depth.max == 3)
    assert(cal.depth.min == 1)
  }

  test("roots have depth 1; child depth = parent depth + 1") {
    for (f <- Seq(fs, cal); c <- f.categories) {
      if (f.isRoot(c)) assert(f.depth(c) == 1)
      else assert(f.depth(c) == f.depth(f.parent(c)) + 1)
    }
  }

  test("treeOf is the root ancestor") {
    for (f <- Seq(fs, cal); c <- f.categories) {
      assert(f.isRoot(f.treeOf(c)))
      assert(ancestorsOf(f, c).last == f.treeOf(c))
    }
  }

  // --- similarity axioms of Def. 3.3 -------------------------------------
  test("sim(c, c) == 1 for every category") {
    for (f <- Seq(fs, cal); c <- f.categories) assert(f.sim(c, c) == 1.0)
  }

  test("sim is symmetric") {
    for (c <- fs.categories; d <- fs.categories) assert(fs.sim(c, d) == fs.sim(d, c))
  }

  test("sim == 0 exactly across different trees (irrelevant categories)") {
    for (c <- fs.categories; d <- fs.categories)
      assert((fs.sim(c, d) == 0.0) == !fs.sameTree(c, d))
  }

  test("semantic match: 0 < sim <= 1 within a tree") {
    for (c <- fs.categories; d <- fs.categories if fs.sameTree(c, d)) {
      assert(fs.sim(c, d) > 0.0 && fs.sim(c, d) <= 1.0)
    }
  }

  test("sim == 1 only for identical categories") {
    for (c <- fs.categories; d <- fs.categories if c != d)
      assert(fs.sim(c, d) < 1.0)
  }

  test("paper Eq. (6) reduces to standard Wu–Palmer: maximizing ancestor is c' itself") {
    // max over ci in ancestors(c') of 2*d(lca(c, ci)) / (d(c) + d(c'))
    for (c <- fs.categories; d <- fs.categories if fs.sameTree(c, d)) {
      val eq6 = ancestorsOf(fs, d).map { ci =>
        val m = fs.lca(c, ci)
        if (m < 0) 0.0 else 2.0 * fs.depth(m) / (fs.depth(c) + fs.depth(d))
      }.max
      assert(math.abs(eq6 - fs.sim(c, d)) < 1e-12)
    }
  }

  test("worked values: sim(Beer Garden, Sake Bar) = 2*2/(3+3)") {
    val a = fs.idOf("Beer Garden"); val b = fs.idOf("Sake Bar")
    assert(math.abs(fs.sim(a, b) - 2.0 * 2 / 6) < 1e-12)
  }

  test("worked values: sim(Cupcake Shop, Dessert Shop) = 0.8 (ancestor substitution)") {
    val a = fs.idOf("Cupcake Shop"); val b = fs.idOf("Dessert Shop")
    assert(math.abs(fs.sim(a, b) - 0.8) < 1e-12)
  }

  test("worked values: sim(Jazz Club, Music Venue) = 0.8 and sim(Jazz Club, Museum) = 0.4") {
    assert(math.abs(fs.sim(fs.idOf("Jazz Club"), fs.idOf("Music Venue")) - 0.8) < 1e-12)
    assert(math.abs(fs.sim(fs.idOf("Jazz Club"), fs.idOf("Museum")) - 0.4) < 1e-12)
  }

  test("lca is commutative and an ancestor of both") {
    for (c <- cal.categories.take(100); d <- cal.categories.take(100) if cal.sameTree(c, d)) {
      val m = cal.lca(c, d)
      assert(m == cal.lca(d, c))
      assert(ancestorsOf(cal, c).contains(m) && ancestorsOf(cal, d).contains(m))
    }
  }

  test("ancestors of an ancestor are a suffix of ancestors") {
    for (c <- fs.categories if !fs.isRoot(c)) {
      val anc = ancestorsOf(fs, c)
      assert(anc.tail == ancestorsOf(fs, fs.parent(c)))
    }
  }

  test("sim monotone along ancestor chain: deeper common ancestor → higher sim") {
    val c = fs.idOf("Jazz Club")
    val chain = ancestorsOf(fs, c) // Jazz Club, Music Venue, A&E
    val sims = chain.map(fs.sim(c, _))
    assert(sims == sims.sorted.reverse)
  }

  test("fromNamed rejects duplicate names") {
    intercept[IllegalArgumentException] {
      CategoryForest.fromNamed(Seq("A" -> "", "A" -> ""))
    }
  }

  test("fromNamed rejects a parent cycle, naming the category") {
    val e = intercept[IllegalArgumentException] {
      CategoryForest.fromNamed(Seq("A" -> "B", "B" -> "A"))
    }
    assert(e.getMessage.contains("category A"), e.getMessage)
  }

  test("fromNamed rejects an unknown parent name, naming the category") {
    val e = intercept[IllegalArgumentException] {
      CategoryForest.fromNamed(Seq("A" -> "", "B" -> "Z"))
    }
    assert(e.getMessage.contains("category B") && e.getMessage.contains("Z"), e.getMessage)
  }

  test("fromParents rejects an out-of-range parent id, naming the category") {
    for (bad <- Seq(Array(-1, 5), Array(-1, -2), Array(-1, 1))) {
      val e = intercept[IllegalArgumentException] {
        CategoryForest.fromParents(bad, Array("A", "B"))
      }
      assert(e.getMessage.contains("category B"), e.getMessage)
    }
  }

  test("idOf/nameOf roundtrip") {
    for (c <- fs.categories) assert(fs.idOf(fs.nameOf(c)) == c)
  }

  test("property: sim in [0,1] for random category pairs") {
    val rnd = new scala.util.Random(99)
    (0 until 500).foreach { _ =>
      val s = cal.sim(rnd.nextInt(cal.size), rnd.nextInt(cal.size))
      assert(s >= 0.0 && s <= 1.0)
    }
  }

  test("property: sim against own parent is 2·d(parent)/(d(c)+d(parent))") {
    for (f <- Seq(fs, cal); a <- f.categories if !f.isRoot(a)) {
      val p = f.parent(a)
      assert(f.sim(a, p) == 2.0 * f.depth(p) / (f.depth(a) + f.depth(p)))
    }
  }
}
