package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.collection.mutable

class RoadNetDataSpec extends AnyFunSuite {

  private val spec = RoadNetSpec(
    nRoadVertices = 200, nPois = 80, roadEdgeFactor = 1.15,
    forest = CategoryForest.foursquareLike,
    poiConnectors = 2, extent = 0.25, zipfAlpha = 0.9, seed = 5L)
  private lazy val g = RoadNetData.generate(spec)

  private def degree(g: RoadGraph, v: Int): Int = g.adjIndex(v + 1) - g.adjIndex(v)

  /** Every vertex is reachable from vertex 0 along the CSR arcs. */
  private def isConnected(g: RoadGraph): Boolean = {
    if (g.numVertices == 0) return true
    val seen  = new Array[Boolean](g.numVertices)
    val stack = mutable.ArrayDeque(0)
    seen(0) = true
    var count = 1
    while (stack.nonEmpty) {
      val u = stack.removeLast()
      var i = g.adjIndex(u)
      while (i < g.adjIndex(u + 1)) {
        val v = g.adjVertex(i)
        if (!seen(v)) { seen(v) = true; count += 1; stack.append(v) }
        i += 1
      }
    }
    count == g.numVertices
  }

  test("generation is deterministic in the spec") {
    val g2 = RoadNetData.generate(spec)
    assert(g.numVertices == g2.numVertices)
    assert(g.adjIndex.sameElements(g2.adjIndex))
    assert(g.adjVertex.sameElements(g2.adjVertex))
    assert(g.adjWeight.sameElements(g2.adjWeight))
    assert(g.poiCategory.sameElements(g2.poiCategory))
  }

  test("different seeds give different graphs") {
    val g3 = RoadNetData.generate(spec.copy(seed = 6L))
    assert(!g.adjWeight.sameElements(g3.adjWeight))
  }

  test("vertex and PoI counts match the spec") {
    assert(g.numVertices == spec.nRoadVertices + spec.nPois)
    assert(g.numPois == spec.nPois)
  }

  test("the graph is connected") {
    assert(isConnected(g))
  }

  test("edge weights are positive and finite") {
    assert(g.adjWeight.forall(w => w > 0 && w.isFinite))
  }

  test("CSR adjacency is symmetric (undirected)") {
    for (u <- 0 until g.numVertices; i <- g.adjIndex(u) until g.adjIndex(u + 1)) {
      val v  = g.adjVertex(i)
      val w  = g.adjWeight(i)
      val ok = (g.adjIndex(v) until g.adjIndex(v + 1)).exists(j =>
        g.adjVertex(j) == u && g.adjWeight(j) == w)
      assert(ok, s"edge $u->$v not mirrored")
    }
  }

  test("every PoI has a valid non-root category; road vertices have none") {
    val f = spec.forest
    for (v <- 0 until g.numVertices) {
      val c = g.poiCategory(v)
      if (v < spec.nRoadVertices) assert(c == -1)
      else { assert(c >= 0 && c < f.size); assert(!f.isRoot(c)) }
    }
  }

  test("PoIs with 2 connectors have degree 2; spur PoIs degree 1") {
    for (v <- spec.nRoadVertices until g.numVertices) assert(degree(g, v) == 2)
    val spur = RoadNetData.generate(spec.copy(poiConnectors = 1, nRoadVertices = 100, nPois = 40))
    for (v <- 100 until 140) assert(degree(spur, v) == 1)
  }

  test("category distribution is skewed (zipf): top category ≫ median") {
    val counts = g.categoryCounts.values.toSeq.sorted.reverse
    assert(counts.head >= 3 * counts(counts.size / 2))
  }

  test("Datasets.tokyoLite/nycLite/calLite match DESIGN.md scale targets") {
    val t = Datasets.tokyoLite
    assert(t.numVertices == 4000 + 1700 && t.numPois == 1700)
    assert(isConnected(t))
    val c = Datasets.calLite
    assert(c.numPois == 8700)
    assert(c.numPois > c.numVertices - c.numPois, "Cal is PoI-dense like the paper")
  }

  test("paper-style workloads: distinct trees per position, PoI-rich leaves, road starts") {
    val f  = CategoryForest.foursquareLike
    val qs = Workload.queries(g, f, n = 30, seqLen = 3, seed = 11L, minPois = 2)
    assert(qs.size == 30)
    qs.foreach { q =>
      assert(q.categories.map(f.treeOf).distinct.size == q.size)
      q.categories.foreach { c =>
        assert(f.isLeaf(c))
        assert(g.categoryCounts.getOrElse(c, 0) >= 2)
      }
      assert(!g.isPoi(q.start))
    }
  }

  test("workload generation is deterministic in the seed") {
    val f = CategoryForest.foursquareLike
    val a = Workload.queries(g, f, 10, 3, seed = 3L, minPois = 2)
    val b = Workload.queries(g, f, 10, 3, seed = 3L, minPois = 2)
    assert(a == b)
  }

  test("PaperExample graph is connected and categorized as in Fig. 1") {
    val pg = PaperExample.graph
    assert(isConnected(pg))
    assert(pg.numPois == 13)
    val f = PaperExample.forest
    assert(f.nameOf(pg.poiCategory(2)) == "Asian restaurant")
    assert(f.nameOf(pg.poiCategory(10)) == "Asian restaurant")
    assert(f.nameOf(pg.poiCategory(8)) == "Gift shop")
    assert(f.nameOf(pg.poiCategory(13)) == "Gift shop")
    assert(Seq(5, 9, 12).forall(p => f.nameOf(pg.poiCategory(p)) == "A&E"))
  }

  /** SHA-256 of the CSR arrays, each weight by its raw bits. */
  private def csrDigest(g: RoadGraph): String = {
    val buf = java.nio.ByteBuffer.allocate(
      4 * (g.adjIndex.length + g.adjVertex.length + g.poiCategory.length) + 8 * g.adjWeight.length)
    g.adjIndex.foreach(buf.putInt)
    g.adjVertex.foreach(buf.putInt)
    g.adjWeight.foreach(w => buf.putLong(java.lang.Double.doubleToRawLongBits(w)))
    g.poiCategory.foreach(buf.putInt)
    java.security.MessageDigest.getInstance("SHA-256").digest(buf.array).map("%02x".format(_)).mkString
  }

  // Every benchmark and table runs on these graphs; a change to generation
  // (RNG call order, weights, PoI placement) must show up here first.
  test("TokyoLite, NYCLite and CalLite are pinned bit for bit") {
    val got = Seq(Datasets.tokyoLite, Datasets.nycLite, Datasets.calLite).map(csrDigest)
    assert(got == Seq(
      "9b5380850f8e1de7759c4781ca533d2487a56f9d5470d9d43d84146bfd5f51ec",
      "bfb994b4ed83ea3a559209717f41bba3c7dce4e564184d65801c0b26687747bc",
      "5de35cdc3db25b502b25a02668e06b3015d3fb257fe90764fd0fda1265eb80ed"))
  }
}
