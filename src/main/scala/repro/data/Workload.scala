package repro.data

import repro.core.Query
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.util.Random

/** Query workload generator following the paper's protocol (§7.1): start
  * points drawn uniformly from the map's road vertices; categories drawn from
  * leaf categories that carry many PoIs, with all positions in *different*
  * category trees (which also makes the distinct-PoI constraint of
  * Def. 3.4-iii vacuous — see DESIGN.md §6).
  */
object Workload {

  /** Leaf categories with at least `minPois` PoIs, the paper's "categories
    * that have a large number of PoI vertices".
    */
  def eligibleCategories(g: RoadGraph, forest: CategoryForest, minPois: Int): Array[Int] =
    forest.leaves.filter(c => g.categoryCounts.getOrElse(c, 0) >= minPois)

  def queries(
      g: RoadGraph,
      forest: CategoryForest,
      n: Int,
      seqLen: Int,
      seed: Long,
      minPois: Int = 10,
  ): Vector[Query] = {
    val rnd      = new Random(seed)
    val eligible = eligibleCategories(g, forest, minPois)
    val byTree   = eligible.groupBy(forest.treeOf)
    require(byTree.size >= seqLen,
      s"need $seqLen distinct trees with PoI-rich leaves, have ${byTree.size}")
    Vector.fill(n) {
      val trees = rnd.shuffle(byTree.keys.toSeq).take(seqLen)
      val cats  = trees.map { t =>
        val cs = byTree(t)
        cs(rnd.nextInt(cs.length))
      }
      Query(roadVertex(g, rnd), cats.toVector)
    }
  }

  /** A start vertex drawn uniformly from the road vertices (the paper's V, not P). */
  def roadVertex(g: RoadGraph, rnd: Random): Int =
    Iterator.continually(rnd.nextInt(g.numVertices)).find(!g.isPoi(_)).get
}
