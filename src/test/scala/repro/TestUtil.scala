package repro

import repro.baselines.IterativeOsr
import repro.core.{PositionSpec, Query, SRoute}
import repro.data.{RoadNetData, RoadNetSpec}
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

object TestUtil {

  /** Small fixture for unit/oracle tests (~seconds of exhaustive search). */
  lazy val testSmall: RoadGraph = RoadNetData.generate(RoadNetSpec(
    nRoadVertices = 300, nPois = 120,
    roadEdgeFactor = 1.15, forest = CategoryForest.foursquareLike,
    poiConnectors = 2, extent = 0.05, zipfAlpha = 0.7, seed = 7L))

  /** Parameterized tiny graph for randomized cross-implementation tests. */
  def tiny(seed: Long, nRoad: Int = 120, nPois: Int = 60): RoadGraph =
    RoadNetData.generate(RoadNetSpec(
      nRoadVertices = nRoad, nPois = nPois,
      roadEdgeFactor = 1.2, forest = CategoryForest.foursquareLike,
      poiConnectors = 2, extent = 0.03, zipfAlpha = 0.6, seed = seed))

  /** `tiny(seed, nRoad, nPois)` with every weight mapped to an
    * integer in 0..2 (both arcs of an edge alike): zero-weight arcs and many
    * equal-length paths, so searches meet ties in distance at every step.
    */
  def tieGraph(seed: Long, nRoad: Int = 120, nPois: Int = 60): repro.graph.RoadGraph = {
    val g = tiny(seed, nRoad, nPois)
    new repro.graph.RoadGraph(g.numVertices, g.adjIndex, g.adjVertex,
      g.adjWeight.map(w => ((w * 1e6).toLong % 3).toDouble), g.poiCategory)
  }

  /** Directed variant of `tiny(seed, 80, 40)`: each undirected edge
    * becomes two arcs with asymmetric weights (forward w, backward 1.3·w) —
    * strongly connected, but with genuinely directional distances.
    */
  def directedGraph(seed: Long): repro.graph.RoadGraph = {
    val g = tiny(seed, nRoad = 80, nPois = 40)
    val arcs = for {
      u <- 0 until g.numVertices
      i <- g.adjIndex(u) until g.adjIndex(u + 1)
      v = g.adjVertex(i)
      if u < v
      w = g.adjWeight(i)
      arc <- Seq((u, v, w), (v, u, 1.3 * w))
    } yield arc
    repro.graph.RoadGraph.fromDirectedEdges(g.numVertices, arcs, g.poiCategory)
  }

  /** The number of OSR runs `IterativeOsr.skySR` makes for `query`: the
    * product of its positions' similarity-level counts.
    */
  def comboCount(g: RoadGraph, forest: CategoryForest, query: Query): Long = {
    val simTables = query.specs.toArray.map(PositionSpec.simTable(forest, _))
    IterativeOsr.simLevels(g, simTables).map(_.length.toLong).product
  }

  /** Two skylines agree iff they have the same (length, semScore) points in
    * order (within tolerance). PoI sequences may differ only when two routes
    * are exactly equivalent (the minimal set keeps an arbitrary
    * representative), so points — not vertex lists — are the contract.
    */
  def assertSameSkyline(label: String, a: Seq[SRoute], b: Seq[SRoute], tol: Double = 1e-9): Unit = {
    val pa = a.map(r => (r.length, r.semScore)).sortBy(identity)
    val pb = b.map(r => (r.length, r.semScore)).sortBy(identity)
    assert(pa.size == pb.size,
      s"$label: skyline sizes differ: ${pa.size} vs ${pb.size}\n  a=$pa\n  b=$pb")
    pa.zip(pb).foreach { case ((l1, s1), (l2, s2)) =>
      assert(math.abs(l1 - l2) <= tol && math.abs(s1 - s2) <= tol,
        s"$label: point mismatch ($l1,$s1) vs ($l2,$s2)\n  a=$pa\n  b=$pb")
    }
  }

  /** Checks that every reported route's scores are consistent with the graph
    * (legs re-derived with exact Dijkstra) — guards against score-accounting
    * bugs that point-set comparison alone could miss.
    */
  def assertRouteScores(g: repro.graph.RoadGraph, forest: repro.semantics.CategoryForest,
                        q: repro.core.Query, routes: Seq[SRoute], tol: Double = 1e-9): Unit = {
    routes.foreach { r =>
      assert(r.size == q.size, s"route size ${r.size} != ${q.size}")
      assert(r.pois.distinct.size == r.size, s"route repeats a PoI: $r")
      var len = 0.0
      var prod = 1.0
      var from = q.start
      r.pois.zipWithIndex.foreach { case (p, i) =>
        len += repro.graph.Dijkstra.distBetween(g, from, p)
        val s = forest.sim(q.categories(i), g.poiCategory(p))
        assert(s > 0.0, s"PoI $p does not semantically match position $i")
        prod *= s
        from = p
      }
      assert(math.abs(len - r.length) <= tol, s"length mismatch: $len vs ${r.length} for $r")
      assert(math.abs((1 - prod) - r.semScore) <= tol, s"sem mismatch for $r")
    }
  }
}
