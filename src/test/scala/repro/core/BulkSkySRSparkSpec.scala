package repro.core

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}

import org.apache.spark.sql.execution.{LocalTableScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.util.QueryExecutionListener
import repro.{SparkSpec, TestUtil}
import repro.baselines.Exhaustive
import repro.data.{Datasets, PaperExample, Workload}
import repro.graph.SearchMetrics
import repro.semantics.CategoryForest

/** The distributed DataFrame pipeline must be exactly the sequential BSSR. */
class BulkSkySRSparkSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private val forest = CategoryForest.foursquareLike

  test("Spark pipeline reproduces the paper's worked example (Table 4)") {
    val got = BulkSkySRSpark.run(spark, PaperExample.graph, PaperExample.forest, PaperExample.query)
    val truth = Exhaustive.skySR(PaperExample.graph, PaperExample.forest, PaperExample.query)
    TestUtil.assertSameSkyline("paper-example", got, truth)
  }

  // With integer weights (`ties`, `TestUtil.tieGraph`) every length is exact
  // and equal-length routes abound: the points are compared bit for bit.
  // The pipeline keeps a route only while it can finish shorter than L0, so
  // a perfect point of length L0 must be NNinit's perfect seed itself.
  for ((ties, seed) <- (1L to 4L).map(false -> _) ++ (1L to 2L).map(true -> _); len <- 2 to 3) {
    val input = if (ties) s"ties, seed=$seed" else s"seed=$seed"
    test(s"Spark pipeline == exhaustive == BSSR ($input, |Sq|=$len)") {
      val g = if (ties) TestUtil.tieGraph(seed) else TestUtil.tiny(seed)
      val q = Workload.queries(g, forest, 1, len, seed * 31 + len, minPois = 1).head
      val truth = Exhaustive.skySR(g, forest, q)
      val bssr  = new Bssr(g, forest).run(q).skyline
      val dist  = BulkSkySRSpark.run(spark, g, forest, q)
      val tol   = if (ties) 0.0 else 1e-9
      TestUtil.assertSameSkyline(s"spark-vs-truth $input", dist, truth, tol)
      TestUtil.assertSameSkyline(s"spark-vs-bssr $input", dist, bssr, tol)
      TestUtil.assertRouteScores(g, forest, q, dist, tol)
      val plan = QueryPlan(g, forest, q.start, q.specs, q.destination, BssrOptions.all, new SearchMetrics)
      dist.find(r => r.semScore == 0.0 && r.length == plan.l0).foreach { r =>
        assert(plan.seeds.contains(r), s"$input: perfect route $r at L0 is not a seed of ${plan.seeds}")
      }
    }
  }

  test("Spark pipeline handles |Sq| = 1") {
    val g = TestUtil.tiny(9)
    val q = Workload.queries(g, forest, 1, 1, 17L, minPois = 1).head
    TestUtil.assertSameSkyline("len1",
      BulkSkySRSpark.run(spark, g, forest, q),
      Exhaustive.skySR(g, forest, q))
  }

  test("Spark pipeline on the small dataset matches BSSR for a |Sq|=4 query") {
    val g = TestUtil.testSmall
    val q = Workload.queries(g, forest, 1, 4, 23L, minPois = 3).head
    TestUtil.assertSameSkyline("small-4",
      BulkSkySRSpark.run(spark, g, forest, q),
      new Bssr(g, forest).run(q).skyline)
  }

  test("Spark pipeline is exact for repeated/same-tree categories (used-set states)") {
    val g = TestUtil.tiny(14)
    val leaves = forest.leaves.filter(c => g.poisByCategory.contains(c))
    val q = repro.core.Query(0, Vector(leaves.head, leaves.head, leaves.head))
    TestUtil.assertSameSkyline("same-tree",
      BulkSkySRSpark.run(spark, g, forest, q),
      Exhaustive.skySR(g, forest, q))
  }

  test("Spark pipeline supports the §6 destination variation") {
    val g = TestUtil.tiny(8)
    val q = Workload.queries(g, forest, 1, 2, 29L, minPois = 1).head
      .copy(destination = Some(3))
    TestUtil.assertSameSkyline("spark-dest",
      BulkSkySRSpark.run(spark, g, forest, q),
      Exhaustive.skySR(g, forest, q))
  }

  // The PoI graph, the leg bounds and the destination leg must all follow
  // arc directions (the destination leg runs on the transpose).
  for (seed <- 1L to 2L; dest <- Seq(false, true)) {
    test(s"Spark pipeline == exhaustive == BSSR on a directed graph (seed=$seed, dest=$dest)") {
      val g = TestUtil.directedGraph(seed)
      val q = Workload.queries(g, forest, 1, 3, seed * 3, minPois = 1).head
        .copy(destination = if (dest) Some(g.pois.head) else None)
      val dist  = BulkSkySRSpark.run(spark, g, forest, q)
      val input = s"directed, seed=$seed, dest=$dest"
      TestUtil.assertSameSkyline(s"spark-vs-truth $input", dist, Exhaustive.skySR(g, forest, q))
      TestUtil.assertSameSkyline(s"spark-vs-bssr $input", dist, new Bssr(g, forest).run(q).skyline)
    }
  }

  // No PoI carries a root category, so no route matches a root position
  // perfectly: NNinit finds no perfect route and L0 = +∞.
  test("Spark pipeline == exhaustive == BSSR when no perfect route exists (L0 = +∞)") {
    val g    = TestUtil.tiny(5)
    val root = forest.idOf("Food")
    val leaf = Workload.eligibleCategories(g, forest, 1).find(!forest.sameTree(_, root)).get
    for (cats <- Seq(Vector(root, leaf), Vector(leaf, root), Vector(root))) {
      val q     = Query(0, cats)
      val truth = Exhaustive.skySR(g, forest, q)
      assert(truth.nonEmpty && truth.forall(_.semScore > 0.0), s"$q has a perfect route")
      TestUtil.assertSameSkyline(s"spark $q", BulkSkySRSpark.run(spark, g, forest, q), truth)
      TestUtil.assertSameSkyline(s"bssr $q", new Bssr(g, forest).run(q).skyline, truth)
    }
  }

  test("per-end-PoI skyline prune keeps exactly the non-dominated partials") {
    import spark.implicits._
    val df = Seq(
      (Array(1), 7, 5.0, 1.0),   // kept
      (Array(2), 7, 6.0, 1.0),   // dominated (longer, same prod)
      (Array(3), 7, 4.0, 0.5),   // kept (shorter)
      (Array(4), 7, 5.0, 1.0),   // equivalent duplicate of first -> dropped
      (Array(5), 8, 9.0, 0.25),  // kept (different end PoI)
      (Array(6), 7, 4.5, 0.75),  // dominated by (4.0, 0.5)? prod 0.75 < ... no: len 4.5>4.0, prod 0.75>0.5 -> kept
    ).toDF("pois", "endV", "len", "prod")
    val kept = BulkSkySRSpark.skylinePerEnd(df, includeUsedSet = false)
      .select("pois").collect().map(_.getAs[scala.collection.Seq[Int]](0).head).toSet
    assert(kept == Set(1, 3, 5, 6))
  }

  test("with used-set states the prune compares only routes with the same used PoIs") {
    import spark.implicits._
    val df = Seq(
      (Array(1, 2, 7), 7, 5.0, 1.0), // kept
      (Array(2, 1, 7), 7, 6.0, 1.0), // dominated by ⟨1,2,7⟩: same used set
      (Array(3, 1, 7), 7, 6.0, 1.0), // kept: used set {1,3,7} differs
      (Array(2, 3, 7), 7, 5.0, 1.0), // kept: the smaller of two equivalent lists
      (Array(3, 2, 7), 7, 5.0, 1.0), // equivalent to ⟨2,3,7⟩, same used set -> dropped
    ).toDF("pois", "endV", "len", "prod")
    def kept(includeUsedSet: Boolean): Set[Seq[Int]] =
      BulkSkySRSpark.skylinePerEnd(df, includeUsedSet)
        .select("pois").collect().map(_.getAs[scala.collection.Seq[Int]](0).toSeq).toSet
    assert(kept(includeUsedSet = true) == Set(Seq(1, 2, 7), Seq(3, 1, 7), Seq(2, 3, 7)))
    assert(kept(includeUsedSet = false) == Set(Seq(1, 2, 7)))
  }

  // The shape of the benchmark's pipeline queries (TokyoLite, |S_q| = 3), on
  // which the L0 filter and the per-level prune cut most joined routes.
  test("Spark pipeline == BSSR on seeded TokyoLite |Sq|=3 queries") {
    val g = Datasets.tokyoLite
    Workload.queries(g, forest, 2, 3, 97L).foreach { q =>
      val dist = BulkSkySRSpark.run(spark, g, forest, q)
      TestUtil.assertSameSkyline(s"tokyo $q", dist, new Bssr(g, forest).run(q).skyline)
      TestUtil.assertRouteScores(g, forest, q, dist)
    }
  }

  // Bench scale, compared bit for bit. Points are the contract, not PoI
  // lists: on `Query(v=547, S=<63,42,33,60>)` both keep the point
  // (0x1.3152a05bf0a51p-3, 0.75) but through different routes, since BSSR
  // keeps the first route it completes there and the pipeline's per-end
  // window the smallest PoI list.
  test("Spark pipeline == BSSR, points bit-equal, on seeded TokyoLite |Sq|=4 queries") {
    val g    = Datasets.tokyoLite
    val qs   = Workload.queries(g, forest, 8, 4, 1004L)
    val bssr = new Bssr(g, forest)
    def points(rs: Seq[SRoute]) = rs.map(r => (r.length, r.semScore))
    assert(qs.contains(Query(547, Vector(63, 42, 33, 60))))
    qs.foreach(q =>
      assert(points(BulkSkySRSpark.run(spark, g, forest, q)) == points(bssr.run(q).skyline), q.toString))
  }

  /** The executed plans of the queries `body` runs. Listener events arrive
    * asynchronously but in order, so one marker query before and one after
    * `body` bracket its plans.
    */
  private def executedPlans(body: => Unit): Seq[SparkPlan] = {
    val seen = new LinkedBlockingQueue[SparkPlan]
    val listener = new QueryExecutionListener {
      def onSuccess(f: String, qe: QueryExecution, ns: Long): Unit = seen.put(qe.executedPlan)
      def onFailure(f: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    def marker(name: String): Unit = spark.range(1).select(lit(1) as name).collect()
    def until(name: String): Seq[SparkPlan] =
      Iterator.continually(Option(seen.poll(60, TimeUnit.SECONDS)).getOrElse(fail(s"no $name")))
        .takeWhile(_.output.map(_.name) != Seq(name)).toSeq
    spark.listenerManager.register(listener)
    try {
      marker("plans_begin")
      until("plans_begin")
      body
      marker("plans_end")
      until("plans_end")
    } finally spark.listenerManager.unregister(listener)
  }

  // The PoI graph's positions are attached in the stage that computes its
  // distances: no query plan embeds a driver-built relation, and the cached
  // PoI graph is computed without an exchange.
  test("the pipeline's plans hold no local relation and its cached PoI graph no exchange") {
    val g = TestUtil.tiny(1)
    val q = Workload.queries(g, forest, 1, 3, 34L, minPois = 1).head
    val plans  = executedPlans(BulkSkySRSpark.run(spark, g, forest, q))
    val cached = plans.flatMap(p => collect(p) { case s: InMemoryTableScanExec => s.relation.cachedPlan })
    assert(cached.nonEmpty, plans.mkString("\n"))
    (plans ++ cached).foreach(p => assert(collect(p) { case l: LocalTableScanExec => l }.isEmpty, p.toString))
    cached.foreach(p => assert(collect(p) { case e: Exchange => e }.isEmpty, p.toString))
  }
}
