package repro.data

import repro.graph.RoadGraph
import repro.semantics.CategoryForest

import scala.collection.mutable
import scala.util.Random

/** Specification of a synthetic road network with embedded PoIs.
  *
  * Shape mirrors the paper's datasets (§7.1): a planar jittered-grid road
  * network (OSM-like), PoIs embedded on randomly chosen road edges (as the
  * paper embeds Foursquare venues "on the closest edge"), lat/lon-style
  * edge weights (degrees over `extent`), and a Zipf-skewed category
  * assignment ("the number of PoI vertices associated with each category is
  * significantly biased").
  */
final case class RoadNetSpec(
    nRoadVertices: Int,
    nPois: Int,
    roadEdgeFactor: Double, // road edges ≈ factor × vertices (≥ spanning tree)
    forest: CategoryForest,
    poiConnectors: Int, // 2: PoI reachable from both edge endpoints; 1: spur
    extent: Double,     // degrees spanned by the map
    zipfAlpha: Double,
    seed: Long,
)

object RoadNetData {

  /** Deterministic generation: same spec (incl. seed) → identical graph. */
  def generate(spec: RoadNetSpec): RoadGraph = {
    val rnd  = new Random(spec.seed)
    val n    = spec.nRoadVertices
    val side = math.ceil(math.sqrt(n.toDouble)).toInt
    val cell = spec.extent / side

    val total = n + spec.nPois
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    var v = 0
    while (v < n) {
      val row = v / side; val col = v % side
      xs(v) = (col + 0.8 * rnd.nextDouble() - 0.4) * cell
      ys(v) = (row + 0.8 * rnd.nextDouble() - 0.4) * cell
      v += 1
    }
    def euclid(a: Int, b: Int): Double =
      math.hypot(xs(a) - xs(b), ys(a) - ys(b))

    // Candidate grid adjacency (right/down neighbours), shuffled.
    val candidates = mutable.ArrayBuffer.empty[(Int, Int)]
    for (u <- 0 until n) {
      val col = u % side
      if (col + 1 < side && u + 1 < n) candidates += ((u, u + 1))
      if (u + side < n) candidates += ((u, u + side))
      // occasional diagonal shortcut candidates for non-grid texture
      if (col + 1 < side && u + side + 1 < n && rnd.nextDouble() < 0.15)
        candidates += ((u, u + side + 1))
    }
    val shuffled = rnd.shuffle(candidates.toSeq)

    // Kruskal spanning tree first (connectivity invariant), then extras.
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }
    val edges   = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    val extras  = mutable.ArrayBuffer.empty[(Int, Int)]
    for ((a, b) <- shuffled) {
      val ra = find(a); val rb = find(b)
      if (ra != rb) { parent(ra) = rb; edges += ((a, b, euclid(a, b))) }
      else extras += ((a, b))
    }
    require(edges.size == n - 1, s"grid spanning tree failed: ${edges.size} of ${n - 1}")
    val targetRoadEdges = math.max(n - 1, (spec.roadEdgeFactor * n).toInt)
    extras.iterator.take(targetRoadEdges - edges.size).foreach { case (a, b) =>
      edges += ((a, b, euclid(a, b)))
    }
    val roadEdgeCount = edges.size

    // Embed PoIs on random road edges.
    val cats = assignCategories(spec, rnd)
    val poiCategory = Array.fill(total)(-1)
    for (i <- 0 until spec.nPois) {
      val p = n + i
      val (a, b, w) = edges(rnd.nextInt(roadEdgeCount))
      val t = 0.15 + 0.7 * rnd.nextDouble()
      edges += ((p, a, t * w))
      if (spec.poiConnectors >= 2) edges += ((p, b, (1.0 - t) * w))
      poiCategory(p) = cats(i)
    }

    RoadGraph.fromEdges(total, edges.toSeq, poiCategory)
  }

  /** Zipf-skewed category draw over the forest's non-root categories, in a
    * seeded-shuffle order so which categories are "popular" varies by seed.
    */
  private def assignCategories(spec: RoadNetSpec, rnd: Random): Array[Int] = {
    val cats = rnd.shuffle(spec.forest.nonRoots.toSeq).toArray
    val weights = Array.tabulate(cats.length)(i => 1.0 / math.pow(i + 1.0, spec.zipfAlpha))
    val cum = weights.scanLeft(0.0)(_ + _).tail
    val norm = cum.last
    Array.fill(spec.nPois) {
      val x = rnd.nextDouble() * norm
      val idx = {
        val i = java.util.Arrays.binarySearch(cum, x)
        if (i >= 0) i else -i - 1
      }
      cats(math.min(idx, cats.length - 1))
    }
  }
}
