package repro.core

import repro.graph.RoadGraph
import repro.semantics.CategoryForest

/** §6 "Skyline trip planning query": SkySR without a category order. A route
  * is feasible if its visited PoIs semantically match the queried categories
  * under *some* bijection, so the exact answer is the skyline of the union
  * over all category orders — each solved by BSSR, whose branch-and-bound
  * prunes each order cheaply once the first seeds are in. Exact for the
  * |set|! ≤ a few dozen orders of realistic trip sizes; validated against
  * `Exhaustive.skySRUnordered`.
  */
object UnorderedSkySR {

  def run(
      g: RoadGraph,
      forest: CategoryForest,
      start: Int,
      categories: Vector[Int],
  ): Vector[SRoute] = {
    val bssr = new Bssr(g, forest)
    val all = categories.permutations.toVector.flatMap { order =>
      bssr.run(Query(start, order)).skyline
    }
    SkylineSet.of(all)
  }
}
