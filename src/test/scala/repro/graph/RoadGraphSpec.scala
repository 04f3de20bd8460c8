package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** The exact CSR layout of both builders and of `transpose`: each vertex's
  * arcs keep their input order, which is the tie order of every search.
  * Vertex 1 is an endpoint of four edges; vertex 3 has no incoming arc.
  */
class RoadGraphSpec extends AnyFunSuite {

  private val n     = 5
  private val edges = Seq((0, 1, 2.0), (1, 2, 1.5), (3, 1, 4.0), (2, 4, 0.5), (4, 0, 3.0), (1, 4, 2.5))
  private val cats  = Array(-1, 0, -1, 3, 1)

  private def assertCsr(g: RoadGraph, index: Seq[Int], vertex: Seq[Int], weight: Seq[Double]): Unit = {
    assert(g.adjIndex.toSeq == index)
    assert(g.adjVertex.toSeq == vertex)
    assert(g.adjWeight.toSeq == weight)
  }

  test("fromEdges mirrors each edge, in edge order") {
    val g = RoadGraph.fromEdges(n, edges, cats)
    assertCsr(g, Seq(0, 2, 6, 8, 9, 12),
      Seq(1, 4, 0, 2, 3, 4, 1, 4, 1, 2, 0, 1),
      Seq(2.0, 3.0, 2.0, 1.5, 4.0, 2.5, 1.5, 0.5, 4.0, 0.5, 3.0, 2.5))
    assert(g.poiCategory.toSeq == cats.toSeq && !(g.poiCategory eq cats))
  }

  test("fromDirectedEdges keeps each arc as given, in edge order") {
    val g = RoadGraph.fromDirectedEdges(n, edges, cats)
    assertCsr(g, Seq(0, 1, 3, 4, 5, 6),
      Seq(1, 2, 4, 4, 1, 0),
      Seq(2.0, 1.5, 2.5, 0.5, 4.0, 3.0))
    assert(g.poiCategory.toSeq == cats.toSeq && !(g.poiCategory eq cats))
  }

  test("transpose reverses every arc, ordered by source then input position") {
    val g = RoadGraph.fromDirectedEdges(n, edges, cats)
    val t = g.transpose
    assertCsr(t, Seq(0, 1, 3, 4, 4, 6),
      Seq(4, 0, 3, 1, 1, 2),
      Seq(3.0, 2.0, 4.0, 1.5, 2.5, 0.5))
    assert(t.poiCategory eq g.poiCategory)
  }

  private val badEdges = Seq(
    "a self-loop"              -> (2, 2, 1.0),
    "an endpoint past the end" -> (0, n, 1.0),
    "a negative endpoint"      -> (-1, 0, 1.0),
    "a negative weight"        -> (0, 1, -0.5),
  )

  for {
    (builder, build) <- Seq[(String, Seq[(Int, Int, Double)] => RoadGraph)](
      "fromEdges"         -> (es => RoadGraph.fromEdges(n, es, cats)),
      "fromDirectedEdges" -> (es => RoadGraph.fromDirectedEdges(n, es, cats)))
    (what, bad) <- badEdges
  } test(s"$builder rejects $what") {
    val e = intercept[IllegalArgumentException](build(edges :+ bad))
    assert(e.getMessage.contains("invalid edge"))
  }
}
