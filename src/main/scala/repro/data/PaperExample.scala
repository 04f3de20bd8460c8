package repro.data

import repro.core.Query
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

/** The worked example of the paper (Fig. 1, Example 1.1/5.6/5.10, Table 4).
  *
  * The paper never publishes the example graph's weights, so this fixture
  * reconstructs a graph consistent with every stated step of the narrative:
  * NNinit seeds S with ⟨p2,p5,p7⟩ and ⟨p2,p5,p8⟩ (the latter with length 15),
  * the possible minimum semantic distances are l_s = (2, 1) realized by
  * p6→p9 and p12→p13, the 12 BSSR steps of Table 4 play out (thresholds 15
  * then 13), and the final skyline is {⟨p10,p12,p13⟩, ⟨p6,p9,p8⟩}.
  * `PaperExampleSpec` asserts each of these.
  */
object PaperExample {

  /** Minimal forest for the example: Food{Asian, Italian}, a single-node
    * A&E tree, Shop&Service{Gift, Hobby}. Wu–Palmer: sim(Asian, Italian) =
    * sim(Gift, Hobby) = 0.5; every A&E PoI matches A&E perfectly.
    */
  lazy val forest: CategoryForest = CategoryForest.fromNamed(Seq(
    "Food"             -> "",
    "Asian restaurant" -> "Food",
    "Italian restaurant" -> "Food",
    "A&E"              -> "",
    "Shop&Service"     -> "",
    "Gift shop"        -> "Shop&Service",
    "Hobby shop"       -> "Shop&Service",
  ))

  val vq = 0
  // p1..p13 are vertices 1..13

  lazy val graph: RoadGraph = {
    val asian   = forest.idOf("Asian restaurant")
    val italian = forest.idOf("Italian restaurant")
    val ae      = forest.idOf("A&E")
    val gift    = forest.idOf("Gift shop")
    val hobby   = forest.idOf("Hobby shop")

    val cat = Array.fill(14)(-1)
    cat(1) = italian; cat(2) = asian; cat(3) = hobby; cat(4) = hobby
    cat(5) = ae; cat(6) = italian; cat(7) = hobby; cat(8) = gift
    cat(9) = ae; cat(10) = asian; cat(11) = italian; cat(12) = ae; cat(13) = gift

    val edges = Seq(
      (0, 2, 6.0), (0, 10, 8.0), (0, 1, 8.5), (0, 6, 8.6), (0, 11, 11.0),
      (2, 5, 4.0), (2, 9, 9.0),
      (1, 5, 3.9), (1, 9, 2.2),
      (6, 9, 2.0),
      (5, 7, 4.5), (5, 8, 5.0), (5, 12, 7.0),
      (10, 12, 4.0), (10, 5, 5.0),
      (12, 13, 1.0),
      (9, 8, 2.0),
      (11, 9, 7.0),
      (5, 3, 16.0), (5, 4, 17.0),
    )
    RoadGraph.fromEdges(14, edges, cat)
  }

  /** The example query: ⟨Asian restaurant, A&E, Gift shop⟩ from v_q. */
  lazy val query: Query = Query(vq, Vector(
    forest.idOf("Asian restaurant"),
    forest.idOf("A&E"),
    forest.idOf("Gift shop"),
  ))
}
