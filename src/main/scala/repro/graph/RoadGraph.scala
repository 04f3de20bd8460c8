package repro.graph

import scala.collection.mutable

/** Road network with embedded PoI vertices, in CSR form. Built undirected by
  * `fromEdges` (each edge mirrored, the paper's §7 setting) or directed by
  * `fromDirectedEdges` (the §6 "directed graphs" variation — every search in
  * this repo walks the CSR forward, so directedness needs no algorithm
  * changes; reverse-distance needs (`transpose`) are explicit).
  *
  * Vertex ids are dense `0 until numVertices`; a vertex is a PoI iff
  * `poiCategory(v) >= 0` (the value is a category id of a
  * [[repro.semantics.CategoryForest]]). Edge weights are nonnegative
  * (lat/lon-style distances in the synthetic datasets, §7.1 of the paper).
  *
  * The CSR arrays are plain primitives so the whole graph can be broadcast
  * to Spark executors cheaply (see [[PoiDistances]]).
  */
final class RoadGraph(
    val numVertices: Int,
    val adjIndex: Array[Int],    // length numVertices + 1
    val adjVertex: Array[Int],
    val adjWeight: Array[Double],
    val poiCategory: Array[Int], // -1 for plain road vertices
) extends Serializable {

  require(adjIndex.length == numVertices + 1, "bad CSR index length")
  require(poiCategory.length == numVertices, "bad poiCategory length")

  def degree(v: Int): Int = adjIndex(v + 1) - adjIndex(v)

  def isPoi(v: Int): Boolean = poiCategory(v) >= 0

  /** `v`'s similarity under a per-category table; 0 for a road vertex. */
  def poiSim(table: Array[Double], v: Int): Double = {
    val c = poiCategory(v)
    if (c < 0) 0.0 else table(c)
  }

  /** Input check at the query API boundary: `v` must be a vertex id. */
  def requireVertex(v: Int, role: String): Unit =
    require(v >= 0 && v < numVertices, s"$role vertex $v out of range [0, $numVertices)")

  /** Number of directed adjacency entries (2× undirected edge count). */
  def numDirectedEdges: Int = adjVertex.length

  /** Undirected edge count — what the paper's Table 5 reports as |E|. */
  def numEdges: Int = numDirectedEdges / 2

  lazy val numPois: Int = poiCategory.count(_ >= 0)

  lazy val pois: Array[Int] = (0 until numVertices).filter(isPoi).toArray

  /** PoI vertices grouped by exact category. */
  lazy val poisByCategory: Map[Int, Array[Int]] =
    pois.groupBy(poiCategory)

  /** Sum of undirected edge weights — the "whole graph" weight mass used to
    * contextualize Table 7's explored-weight sums.
    */
  lazy val totalWeight: Double = adjWeight.sum / 2.0

  /** PoI counts per category, for workload generation (the paper selects
    * "only categories that have a large number of PoI vertices").
    */
  lazy val categoryCounts: Map[Int, Int] =
    poisByCategory.view.mapValues(_.length).toMap

  /** The graph with every edge reversed; `Dijkstra.fromSource(transpose, d)`
    * gives distances *to* `d`, which the destination variation needs. A
    * structurally-undirected graph transposes to itself (same distances).
    */
  lazy val transpose: RoadGraph =
    RoadGraph.csr(numVertices, poiCategory) { arc =>
      var u = 0
      while (u < numVertices) {
        var i = adjIndex(u)
        while (i < adjIndex(u + 1)) { arc(adjVertex(i), u, adjWeight(i)); i += 1 }
        u += 1
      }
    }
}

object RoadGraph {

  /** Build a CSR graph from an undirected edge list. */
  def fromEdges(
      numVertices: Int,
      edges: Seq[(Int, Int, Double)],
      poiCategory: Array[Int],
  ): RoadGraph = {
    requireEdges(numVertices, edges)
    csr(numVertices, poiCategory.clone()) { arc =>
      edges.foreach { case (u, v, w) => arc(u, v, w); arc(v, u, w) }
    }
  }

  /** Build a CSR graph from a directed edge list (§6 variation). */
  def fromDirectedEdges(
      numVertices: Int,
      edges: Seq[(Int, Int, Double)],
      poiCategory: Array[Int],
  ): RoadGraph = {
    requireEdges(numVertices, edges)
    csr(numVertices, poiCategory.clone()) { arc =>
      edges.foreach { case (u, v, w) => arc(u, v, w) }
    }
  }

  private def requireEdges(numVertices: Int, edges: Seq[(Int, Int, Double)]): Unit =
    require(edges.forall { case (u, v, w) =>
      u >= 0 && u < numVertices && v >= 0 && v < numVertices && w >= 0 && u != v
    }, "invalid edge")

  /** The one CSR builder. `arcs` emits every arc `(from, to, weight)` to the
    * sink it is given; it runs twice, once to count out-degrees and once to
    * place, so each vertex's arcs keep their emission order — the tie order
    * of every search over the graph.
    */
  private def csr(n: Int, cat: Array[Int])(arcs: ((Int, Int, Double) => Unit) => Unit): RoadGraph = {
    val idx = new Array[Int](n + 1)
    arcs((u, _, _) => idx(u + 1) += 1)
    var i = 0
    while (i < n) { idx(i + 1) += idx(i); i += 1 }
    val pos = idx.clone()
    val av  = new Array[Int](idx(n))
    val aw  = new Array[Double](idx(n))
    arcs { (u, v, w) => av(pos(u)) = v; aw(pos(u)) = w; pos(u) += 1 }
    new RoadGraph(n, idx, av, aw, cat)
  }

  /** Connectivity check (tests + generator invariant). */
  def isConnected(g: RoadGraph): Boolean = {
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
}
