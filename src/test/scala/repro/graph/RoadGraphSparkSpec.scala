package repro.graph

import repro.SparkSpec
import repro.data.{Datasets, RoadNetData}

/** DataFrame round-trip + the distributed PoI-graph builder. */
class RoadGraphSparkSpec extends SparkSpec {

  test("toDataFrames/fromDataFrames round-trips the graph") {
    val g = Datasets.tiny(3)
    val (v, e, p) = g.toDataFrames(spark)
    assert(v.count() == g.numVertices)
    assert(e.count() == g.numEdges)
    assert(p.count() == g.numPois)
    val g2 = RoadGraph.fromDataFrames(v, e, p)
    assert(g2.numVertices == g.numVertices)
    assert(g2.poiCategory.sameElements(g.poiCategory))
    // CSR may order neighbours differently; compare distances instead
    for (s <- 0 until g.numVertices by 17) {
      val d1 = Dijkstra.fromSource(g, s)
      val d2 = Dijkstra.fromSource(g2, s)
      assert(d1.zip(d2).forall { case (a, b) => math.abs(a - b) < 1e-12 })
    }
  }

  test("RoadNetData.roadNetwork produces a consistent graph at small SF") {
    val (v, e, p) = RoadNetData.roadNetwork(spark, sf = 0.0005, seed = 9)
    val g = RoadGraph.fromDataFrames(v, e, p)
    assert(RoadGraph.isConnected(g))
    assert(g.numPois > 0)
    assert(g.numPois == p.count())
  }

  test("PoiDistances matches driver-side Dijkstra") {
    val g = Datasets.tiny(5)
    val sources = Seq(0, 3, 7)
    val cats = g.poisByCategory.keySet
    val rows = PoiDistances.build(spark, g, sources, cats, bound = Double.PositiveInfinity)
      .collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    sources.foreach { s =>
      val d = Dijkstra.fromSource(g, s)
      g.pois.filter(_ != s).foreach { p =>
        assert(rows.contains((s, p)), s"missing pair $s->$p")
        assert(math.abs(rows((s, p)) - d(p)) < 1e-12)
      }
    }
  }

  test("PoiDistances honors the distance bound and the category filter") {
    val g = Datasets.tiny(6)
    val someCat = g.poisByCategory.keys.head
    val d0 = Dijkstra.fromSource(g, 0)
    val bound = g.pois.map(d0).sorted.apply(g.numPois / 2)
    val rows = PoiDistances.build(spark, g, Seq(0), Set(someCat), bound).collect()
    rows.foreach { r =>
      assert(r.getDouble(2) <= bound)
      assert(g.poiCategory(r.getInt(1)) == someCat)
    }
    val expected = g.pois.count(p => p != 0 && g.poiCategory(p) == someCat && d0(p) <= bound)
    assert(rows.length == expected)
  }
}
