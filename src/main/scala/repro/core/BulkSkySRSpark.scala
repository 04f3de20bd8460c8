package repro.core

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{PoiDistances, RoadGraph, SearchMetrics}
import repro.semantics.CategoryForest

/** The distributed dataflow rendering of bulk SkySR search: iterative
  * DataFrame joins over the PoI graph with semantic-hierarchy filters and
  * per-level skyline pruning (the `repro=4` calibration mapping; DESIGN.md
  * §2). Exact — verified against `Bssr` and `Exhaustive` in the tests.
  *
  * Phases:
  *  1. Build the query's [[QueryPlan]] locally, as BSSR does: NNinit seeds
  *     the upper bounds (§5.3.1; `L0` = best perfect-match length) and the
  *     Def. 5.7 leg bounds give the pruning suffixes and sources.
  *  2. Build the PoI graph distributedly: bounded Dijkstras from the start
  *     and every semantically matching PoI, in parallel over a broadcast
  *     CSR ([[repro.graph.PoiDistances]]), one row per matched position,
  *     looked up by the target's category in the same stage (no join).
  *  3. Grow routes level-synchronously with Catalyst: level 0 is the
  *     start's rows of the PoI graph; each later level joins the frontier
  *     with the level's rows of the PoI graph. Every level is then pruned —
  *     (a) globally via Lemma 5.3 against `L0` plus the `l_s` suffix bounds
  *     of Def. 5.7, and (b) per end-PoI with one window-function skyline
  *     (routes ending at the same PoI at the same level share all futures,
  *     so dominance among them is safe).
  *  4. Collect the complete routes, union the NNinit seeds, and take the
  *     final minimal skyline.
  */
object BulkSkySRSpark {

  def run(
      spark: SparkSession,
      g: RoadGraph,
      forest: CategoryForest,
      query: Query,
  ): Vector[SRoute] = {
    import spark.implicits._
    val k = query.size

    // Phase 1: the query plan Bssr builds, NNinit and leg bounds included.
    // The seeds and L0 already include the §6 destination leg when one is given.
    val plan = QueryPlan(g, forest, query.start, query.specs, query.destination,
      BssrOptions.all, new SearchMetrics)
    import plan.{simPos, l0, lsSuf}
    // Overlapping positions make the used-PoI set part of a route's state.
    val usedSetState = plan.overlapping.contains(true)

    // Phase 2: PoI graph from the start and the leg sources (the L0 ball), with
    // one row per `(pos, sim)` of its target's category: the semantic filter.
    val sourcePois = plan.legSrcs.iterator.flatten.distinct.toSeq
    val posSims = forest.categories.map(c =>
      (0 until k).map(i => (i, simPos(i)(c))).filter(_._2 > 0.0))
    val targets = forest.categories.filter(posSims(_).nonEmpty).toSet
    val poiGraph = PoiDistances
      .build(spark, g, query.start +: sourcePois, targets, l0)
      .select($"src", $"dst", $"dist", explode(element_at(typedLit(posSims), $"cat" + 1)) as "ps")
      .select($"src", $"dst", $"dist", $"ps._1" as "pos", $"ps._2" as "sim")
      .cache()

    // Phase 3: level-synchronous growth from the start's rows at level 0.
    // Each level keeps the routes that can still finish shorter than L0
    // (Lemma 5.3; with L0 = +∞, every route that can still complete): any
    // other is dominated by or equivalent to the perfect seed of length L0,
    // which Phase 4 adds. Below the last level it is also pruned per end-PoI.
    def prune(level: DataFrame, i: Int): DataFrame = {
      val kept = level.where($"len" + lit(lsSuf(i + 1)) < lit(l0))
      if (i < k - 1) skylinePerEnd(kept, usedSetState) else kept
    }
    val level0 = poiGraph.where($"pos" === 0 && $"src" === query.start)
      .select(array($"dst") as "pois", $"dst" as "endV", $"dist" as "len", $"sim" as "prod")
    val routes = (1 until k).foldLeft(prune(level0, 0)) { (frontier, i) =>
      prune(frontier.alias("r")
        .join(poiGraph.where($"pos" === i).alias("d"), col("r.endV") === col("d.src"))
        .where(!array_contains(col("r.pois"), col("d.dst")))
        .select(
          concat(col("r.pois"), array(col("d.dst"))) as "pois",
          col("d.dst") as "endV",
          (col("r.len") + col("d.dist")) as "len",
          (col("r.prod") * col("d.sim")) as "prod",
        ), i)
    }

    val complete = routes.select("pois", "len", "prod").collect().toVector
      .flatMap { r =>
        SRoute(r.getAs[scala.collection.Seq[Int]]("pois").toVector,
          r.getDouble(1), r.getDouble(2)).toDestination(plan.distToDest)
      }
    poiGraph.unpersist()

    // Phase 4: final minimal skyline over pipeline results + NNinit seeds.
    SkylineSet.of(complete ++ plan.seeds)
  }

  /** Per-end-PoI skyline prune: among routes of the same level ending at the
    * same PoI, drop any dominated by (or equivalent to) another — their
    * extensions would be dominated pointwise (Lemma 5.2 applied per state).
    */
  private[core] def skylinePerEnd(df: DataFrame, includeUsedSet: Boolean): DataFrame = {
    import df.sparkSession.implicits._
    // When some positions can match the same PoIs (`QueryPlan.overlapping`),
    // two partials with different used-PoI sets have different legal futures
    // (Def. 3.4-iii), so dominance is only safe within identical (endV,
    // used-set) states; otherwise (the paper's distinct-tree workloads) the
    // used set can never collide with a future position and endV alone is a
    // sound state.
    val state =
      if (includeUsedSet) Seq($"endV", sort_array($"pois")) else Seq($"endV")
    // Every earlier row is at most as long, so a row survives iff its prod
    // beats theirs; of equivalent rows only the one with the least pois does.
    val domW = Window.partitionBy(state: _*)
      .orderBy($"len".asc, $"prod".desc, $"pois".asc)
      .rowsBetween(Window.unboundedPreceding, -1)
    df.withColumn("bestProdBefore", max($"prod").over(domW))
      .where($"bestProdBefore".isNull || $"prod" > $"bestProdBefore")
      .drop("bestProdBefore")
  }
}
