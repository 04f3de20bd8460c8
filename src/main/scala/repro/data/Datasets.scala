package repro.data

import repro.graph.RoadGraph
import repro.semantics.CategoryForest

/** The three evaluation datasets of the paper's Table 5, scaled down
  * (~1/100 for Tokyo/NYC, ~1/10 for Cal — see DESIGN.md §5). All are cached
  * per JVM; generation is deterministic.
  */
object Datasets {

  /** Tokyo: OSM road net + Foursquare PoIs (paper: 401,893 / 174,421 / 499,397). */
  lazy val tokyoLite: RoadGraph = RoadNetData.generate(RoadNetSpec(
    nRoadVertices = 4000, nPois = 1700,
    roadEdgeFactor = 1.10, forest = CategoryForest.foursquareLike,
    poiConnectors = 2, extent = 0.25, zipfAlpha = 0.9, seed = 1001L))

  /** New York city (paper: 1,150,744 / 451,051 / 1,722,350). */
  lazy val nycLite: RoadGraph = RoadNetData.generate(RoadNetSpec(
    nRoadVertices = 11500, nPois = 4500,
    roadEdgeFactor = 1.15, forest = CategoryForest.foursquareLike,
    poiConnectors = 2, extent = 0.35, zipfAlpha = 0.9, seed = 1002L))

  /** California road net + PoIs, PoI-dense (paper: 21,048 / 87,365 / 108,863;
    * 635 categories in generated trees of height 3, branching 3).
    */
  lazy val calLite: RoadGraph = RoadNetData.generate(RoadNetSpec(
    nRoadVertices = 2100, nPois = 8700,
    roadEdgeFactor = 1.20, forest = calForest,
    poiConnectors = 1, extent = 0.5, zipfAlpha = 0.7, seed = 1003L))

  /** 49 trees × 13 nodes = 637 ≈ the Cal dataset's 635 categories. */
  lazy val calForest: CategoryForest = CategoryForest.generated(49, 3, 3)

  lazy val all: Seq[(String, RoadGraph, CategoryForest)] = Seq(
    ("Tokyo", tokyoLite, CategoryForest.foursquareLike),
    ("NYC", nycLite, CategoryForest.foursquareLike),
    ("Cal", calLite, calForest),
  )
}
