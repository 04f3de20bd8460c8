package skybench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors, TimeUnit}

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession
import repro.baselines.{BaselineMetrics, IterativeOsr}
import repro.core._
import repro.graph.{Dijkstra, PoiDistances, SearchMetrics}
import repro.spark.DistributedQueryRunner

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean)

/** A closed-loop pass: `out(i)` answers call `i`; the first `timed` calls
  * ran inside the measured window of `wallNs`.
  */
final case class Pass[A](out: Vector[Try[A]], latNs: Vector[Long], timed: Int, wallNs: Long) {
  def latMs: Vector[Double] = latNs.take(timed).map(_ / 1e6)
  def meanNs: Double = if (timed == 0) 0.0 else latNs.take(timed).sum.toDouble / timed
}

/** A span recorded around one call into a layer (traced runs only). */
final case class Span(call: Int, layer: String, parent: String, startNs: Long, endNs: Long)

/** One answer's verdict. */
final case class Verdict(outcome: Outcome, baselineNs: Long = 0L, osrRuns: Long = 0L,
                         baselineRan: Boolean = false)

/** Separately timed calls into the layers under one query. */
final case class Probe(simNs: Long, lbNs: Long, lbSearches: Int, lbSettled: Long,
                       fsNs: Long, fsCalls: Int, poiGraphNs: Long, poiGraphRows: Long)

/** Runs one workload end to end. */
final class Bench(a: Args, workDir: String) {

  private val w      = a.workload
  private val rep    = new Report
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val SetupReps   = 25
  private val WarmSeconds = 5.0
  /** `batch` compares every OsrEvery-th answer with iterated OSR (Dij). */
  private val OsrEvery    = 20

  /** Queries whose answers and exact counters the digest covers; a run
    * always answers them, finishing untimed if the window ends first.
    */
  private val digestCount: Int = w match {
    case "long"  => 40
    case "batch" => Workloads.perStream("batch")
  }

  // ---- set-up -------------------------------------------------------------

  private val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
  private val tGen = System.nanoTime()
  val ds: Vector[DataSet] = Workloads.datasets(w)
  private val gen0 = (System.nanoTime() - tGen) / 1e9
  Workloads.touch(ds)
  private val solvers = Workloads.solvers(ds)
  private val items   = Workloads.queries(w, ds, a.seed, Workloads.perStream(w))
  private val warm    = Workloads.queries(w, ds, Workloads.WarmSeed, Workloads.perStream(w))
  private var sparkOpt: Option[SparkSession] =
    if (Workloads.usesSpark(w)) Some(SparkTools.start(workDir)) else None
  private val coldSetup = (System.currentTimeMillis() - jvmStartMs) / 1000.0

  private var phaseMark = System.nanoTime() - (System.currentTimeMillis() - jvmStartMs) * 1000000L
  private val phases = mutable.ArrayBuffer.empty[String]

  /** Records the wall time since the previous phase ended. */
  private def phase(name: String): Unit = {
    val now = System.nanoTime()
    phases += f"$name ${(now - phaseMark) / 1e9}%.1f s"
    phaseMark = now
  }

  private def spark: SparkSession = sparkOpt.get
  private def item(i: Int): Item = items(i % items.size)

  /** Set-up repeated: the first is the cold one above, measured from JVM
    * start; the others rerun it in a fresh class loader and restart Spark.
    */
  private def setups(): Unit = {
    val total = mutable.ArrayBuffer(coldSetup)
    val gens  = mutable.ArrayBuffer(gen0)
    for (_ <- 2 to SetupReps) {
      System.gc()
      val (gen, s) = Workloads.freshSetup(w, a.seed)
      val sparkS = sparkOpt.fold(0.0) { old =>
        old.stop()
        val t = System.nanoTime()
        sparkOpt = Some(SparkTools.start(workDir))
        (System.nanoTime() - t) / 1e9
      }
      total += s + sparkS
      gens += gen
    }
    rep.put("setup_s", Stats.median(total.toSeq))
    rep.put("data.generate_s", Stats.median(gens.toSeq))
    rep.note(f"setup: cold $coldSetup%.3f s, repeats ${total.tail.map(t => f"$t%.3f").mkString(" ")} s")
    sparkOpt.foreach(s => rep.note(s"spark: ${SparkTools.settings(s)}"))
  }

  // ---- passes -------------------------------------------------------------

  /** Calls `f(0)`, `f(1)`, … until `seconds` pass, then untimed up to `atLeast`. */
  private def loop[A](seconds: Double, atLeast: Int)(f: Int => A): Pass[A] = {
    val out = Vector.newBuilder[Try[A]]
    val lat = Vector.newBuilder[Long]
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    var now = t0
    var i = 0
    while (now < deadline) {
      val s = System.nanoTime()
      out += Try(f(i))
      now = System.nanoTime()
      lat += now - s
      i += 1
    }
    val timed = i
    while (i < atLeast) { out += Try(f(i)); lat += 0L; i += 1 }
    Pass(out.result(), lat.result(), timed, now - t0)
  }

  /** Trace mode: each call runs twice in a row, once plain and once inside
    * a span, alternating which goes first. Returns the (plain, traced)
    * passes; their difference is the tracing overhead.
    */
  private def paired[A](seconds: Double, atLeast: Int, layer: String)(f: Int => A): (Pass[A], Pass[A]) = {
    val both = loop(seconds, atLeast) { i =>
      def plain(): (Try[A], Long) = {
        val s = System.nanoTime()
        val r = Try(f(i))
        (r, System.nanoTime() - s)
      }
      def traced(): (Try[A], Long) = {
        val s = System.nanoTime()
        val r = Try(f(i))
        spans += Span(i, layer, "client", s, System.nanoTime())
        (r, System.nanoTime() - s)
      }
      if (i % 2 == 0) { val p = plain(); (p, traced()) }
      else { val t = traced(); (plain(), t) }
    }
    def side(pick: (((Try[A], Long), (Try[A], Long))) => (Try[A], Long)): Pass[A] = {
      val calls = both.out.map(c => pick(c.get))
      Pass(calls.map(_._1), calls.map(_._2), both.timed, both.wallNs)
    }
    (side(_._1), side(_._2))
  }

  /** `query_p50_ms` is the geometric mean over datasets of each dataset's
    * median: calls are grouped by `dataset(call)`. With one dataset it is
    * the plain median.
    */
  private def latencyMetrics(p: Pass[_], perCall: Int, dataset: Int => Int): Unit = {
    val lat = p.latMs
    val byDataset = lat.indices.groupBy(dataset).values.map(ix => ix.map(lat)).toSeq
    rep.put("query_p50_ms", Stats.geoMean(byDataset.map(Stats.median)))
    rep.put("qps", p.timed.toDouble * perCall / (p.wallNs / 1e9))
    tailNote(lat)
  }

  private def tailNote(lat: Seq[Double]): Unit = Stats.tail(lat) match {
    case Some((pct, v)) =>
      rep.put("query_tail_ms", v)
      rep.note(f"query_tail_ms: p$pct%s = $v%.4f ms over ${lat.size} samples " +
        s"(${Stats.beyond(pct, lat.size)} beyond)")
    case None =>
      rep.note(s"query_tail_ms: undefined, ${lat.size} samples (needs 11)")
  }

  private def overhead(plain: Pass[_], traced: Pass[_]): Unit = {
    val n = math.min(plain.timed, traced.timed)
    val a = plain.latNs.take(n).sum.toDouble
    val b = traced.latNs.take(n).sum.toDouble
    rep.put("tracing_overhead_frac", Metrics.ratio(b - a, a))
  }

  // ---- verification -------------------------------------------------------

  private def parMap[A, B](xs: IndexedSeq[A], threads: Int = SparkTools.Threads)(f: A => B): Vector[B] = {
    val pool = Executors.newFixedThreadPool(threads)
    try xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.get()).toVector
    finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
  }

  /** A fresh solver per dataset per thread: `Bssr` reuses scratch arrays. */
  private val threadSolvers = ThreadLocal.withInitial[Vector[Bssr]](() => Workloads.solvers(ds))

  private def reference(idx: IndexedSeq[Int], threads: Int): Vector[(BssrResult, Long)] =
    parMap(idx, threads) { i =>
      val it = item(i)
      val t = System.nanoTime()
      val r = threadSolvers.get()(it.ds).run(it.q)
      (r, System.nanoTime() - t)
    }

  /** Checks `got` against iterated OSR (Dij, uncapped), timing the baseline. */
  private def osrVerdict(it: Item, got: Try[Seq[Route]]): Verdict = {
    val d = ds(it.ds)
    val m = new BaselineMetrics
    val t = System.nanoTime()
    val want = IterativeOsr.skySR(d.g, d.forest, it.q, useDij = true, m).map(Route.of)
    Verdict(judge(it, got, Some(want)), System.nanoTime() - t, m.osrRuns, true)
  }

  private def judge(it: Item, got: Try[Seq[Route]], want: Option[Seq[Route]]): Outcome =
    got match {
      case Failure(e) => Outcome.Mismatch(s"${it.q}: threw $e")
      case Success(rs) =>
        val d = ds(it.ds)
        Try(Verify.check(d.g, d.forest, it.q, rs, want))
          .fold(e => Outcome.Mismatch(s"${it.q}: check threw $e"), identity)
    }

  private def tally(vs: Seq[Verdict]): Unit = {
    rep.attempted += vs.size
    val bad = vs.collect { case Verdict(m: Outcome.Mismatch, _, _, _) => m }
    rep.failed += bad.size
    bad.take(3).foreach(m => rep.note(s"FAILED ${m.why}"))
    val ties = vs.count(_.outcome == Outcome.TieSplit)
    rep.put("verify.tie_splits", rep.get("verify.tie_splits") + ties)
    rep.put("failed_frac", Metrics.ratio(rep.failed, rep.attempted))
    val base = vs.filter(_.baselineRan)
    if (base.nonEmpty) {
      rep.put("baselines.dij_ms", base.map(_.baselineNs).sum / 1e6 / base.size)
      rep.put("baselines.osr_runs", base.map(_.osrRuns).sum.toDouble / base.size)
    }
  }

  private def digest(answers: Seq[Try[Seq[Route]]]): Unit = {
    val hex = Verify.digest(answers.map(_.fold(e => s"error $e", Verify.digestLine)))
    rep.put("answers.digest", Verify.digestNumber(hex))
    rep.note(s"answers.digest: sha256 $hex over ${answers.size} queries")
  }

  private def counters(ms: Seq[BssrMetrics]): Unit = {
    def sum(f: BssrMetrics => Long): Long = ms.map(f).sum
    rep.note(s"counters over ${ms.size} queries: settled=${sum(_.search.settled)} " +
      s"relaxed=${sum(_.search.relaxed)} mDijkstraRuns=${sum(_.mDijkstraRuns)} " +
      s"cacheHits=${sum(_.cacheHits)} routesDequeued=${sum(_.routesDequeued)}")
  }

  // ---- per-layer probes -----------------------------------------------------

  /** Times each layer's public call for one query, as the pipeline makes
    * them; `poiGraph` adds the pipeline's sources and its PoI-graph build.
    */
  private def probe(it: Item, poiGraph: Boolean): Probe = {
    val d = ds(it.ds)
    val g = d.g
    val q = it.q
    val k = q.size
    val t0 = System.nanoTime()
    val simPos = q.categories.toArray.map(c => PositionSpec.simTable(d.forest, PositionSpec.simple(c)))
    val t1 = System.nanoTime()
    val sky = new SkylineSet
    NNInit.runTables(g, simPos, q.start, None, sky, null)
    val t2 = System.nanoTime()
    val l0 = sky.thresholdFor(0.0)
    val lm = new SearchMetrics
    LowerBounds.legsTables(g, simPos, q.start, l0, lm)
    val t3 = System.nanoTime()
    val sources: Seq[Int] =
      if (!poiGraph) Seq(q.start)
      else {
        val dv = Dijkstra.fromSource(g, q.start, l0)
        val pois = (0 until k - 1).flatMap { i =>
          g.pois.filter(p => simPos(i)(g.poiCategory(p)) > 0.0 && dv(p) <= l0)
        }.distinct
        q.start +: pois
      }
    val t4 = System.nanoTime()
    sources.foreach(s => Dijkstra.fromSource(g, s, l0))
    val t5 = System.nanoTime()
    val (pgNs, rows) =
      if (!poiGraph) (0L, 0L)
      else {
        val targets = (0 until k).flatMap(i => d.forest.categories.filter(c => simPos(i)(c) > 0.0)).toSet
        val t = System.nanoTime()
        val n = PoiDistances.build(spark, g, sources, targets, l0).count()
        (System.nanoTime() - t, n)
      }
    spans ++= Seq(
      Span(-1, "semantics.simtable", "probe", t0, t1),
      Span(-1, "core.nninit", "probe", t1, t2),
      Span(-1, "core.lower_bounds", "probe", t2, t3),
      Span(-1, "graph.from_source", "probe", t4, t5))
    Probe(t1 - t0, t3 - t2, if (k >= 2) 1 + 2 * (k - 1) else 0, lm.settled,
      t5 - t4, sources.size, pgNs, rows)
  }

  private def probeMetrics(ps: Seq[Probe]): Unit = {
    def mean(f: Probe => Double): Double = Stats.mean(ps.map(f))
    rep.put("semantics.simtable_us", mean(_.simNs / 1e3))
    rep.put("core.lower_bounds.ms", mean(_.lbNs / 1e6))
    rep.put("core.lower_bounds.searches", mean(_.lbSearches.toDouble))
    rep.put("core.lower_bounds.settled", mean(_.lbSettled.toDouble))
  }

  /** Search-layer metrics from the solver's own counters. */
  private def bssrLayerMetrics(ms: Seq[BssrMetrics], rate: (Long, Long)): Unit = {
    def mean(f: BssrMetrics => Double): Double = Stats.mean(ms.map(f))
    val runs = mean(_.mDijkstraRuns.toDouble)
    val hits = mean(_.cacheHits.toDouble)
    val deq  = mean(_.routesDequeued.toDouble)
    val nnMs = mean(_.initTimeNanos / 1e6)
    rep.put("core.nninit.ms", nnMs)
    rep.put("core.nninit.seed_routes", mean(_.initRoutes.toDouble))
    rep.put("core.search.ms", mean(_.totalTimeNanos / 1e6) - nnMs -
      rep.get("core.lower_bounds.ms") - rep.get("semantics.simtable_us") / 1e3)
    rep.put("core.search.mdijkstra_runs", runs)
    rep.put("core.search.cache_hits", hits)
    rep.put("core.search.cache_hit_ratio", Metrics.ratio(hits, hits + runs))
    rep.put("core.search.routes_enqueued", mean(_.routesEnqueued.toDouble))
    rep.put("core.search.routes_dequeued", deq)
    rep.put("core.search.expanded_ratio", Metrics.ratio(runs + hits, deq))
    rep.put("core.search.peak_queue", mean(_.peakQueueSize.toDouble))
    rep.put("graph.settled", mean(_.search.settled.toDouble))
    rep.put("graph.relaxed", mean(_.search.relaxed.toDouble))
    rep.put("graph.settled_per_s", Metrics.ratio(rate._1, rate._2 / 1e9))
  }

  private def sparkMetrics(c: SparkTools.Counter, queries: Long): Unit = {
    rep.put("spark.jobs_per_query", Metrics.ratio(c.jobs.get, queries))
    rep.put("spark.tasks_per_query", Metrics.ratio(c.tasks.get, queries))
    rep.put("spark.shuffle_mb_per_query", Metrics.ratio(c.shuffleBytes.get / 1048576.0, queries))
  }

  // ---- workloads ------------------------------------------------------------

  private def routes(r: BssrResult): Vector[Route] = r.skyline.map(Route.of)

  /** `long`: sequential `Bssr.run`, one client, closed loop. */
  private def sequential(): Unit = {
    val run: Int => BssrResult = i => { val it = item(i); solvers(it.ds).run(it.q) }
    loop(WarmSeconds, 0) { i => val it = warm(i % warm.size); solvers(it.ds).run(it.q) }
    phase("warm-up")
    val passes =
      if (!a.trace) {
        val p = loop(a.seconds, digestCount)(run)
        latencyMetrics(p, 1, item(_).ds)
        Vector(p)
      } else {
        val (plain, traced) = paired(a.seconds, digestCount, "core.bssr.run")(run)
        overhead(plain, traced)
        tailNote(plain.latMs)
        val ms = traced.out.take(digestCount).collect { case Success(r) => r.metrics }
        val all = traced.out.collect { case Success(r) => r.metrics }
        val ps = (0 until digestCount).map(i => probe(item(i), poiGraph = false))
        probeMetrics(ps)
        rep.put("graph.from_source_us", Metrics.ratio(ps.map(_.fsNs).sum / 1e3, ps.map(_.fsCalls).sum))
        bssrLayerMetrics(ms, (all.map(_.search.settled).sum, all.map(_.totalTimeNanos).sum))
        Vector(plain, traced)
      }
    phase(if (a.trace) "measured and probes" else "measured")
    for (p <- passes) tally(parMap(p.out.indices) { i =>
      val it = item(i)
      p.out(i) match {
        case Success(r) if r.metrics.aborted => Verdict(Outcome.Mismatch(s"${it.q}: budget-capped"))
        case got => Verdict(judge(it, got.map(routes), None))
      }
    })
    val last = passes.last.out
    digest(last.take(digestCount).map(_.map(routes)))
    counters(last.take(digestCount).collect { case Success(r) => r.metrics })
  }

  /** `batch`: one client submitting `DistributedQueryRunner` jobs of
    * [[Workloads.BatchJob]] queries, cycling through the seeded list.
    */
  private def batch(): Unit = {
    val g = ds(0).g
    val forest = ds(0).forest
    val size = Workloads.BatchJob
    val slices = items.size / size
    def job(list: IndexedSeq[Item]): Vector[Vector[Route]] = {
      val rows = DistributedQueryRunner.run(spark, g, forest, list.map(_.q)).collect()
      val by = rows.groupBy(_.getInt(0))
      Vector.tabulate(list.size) { i =>
        by.getOrElse(i, Array.empty).sortBy(_.getInt(1)).toVector.map { r =>
          Route(r.getString(2).split(' ').filter(_.nonEmpty).map(_.toInt).toVector,
            r.getDouble(3), r.getDouble(4))
        }
      }
    }
    def at(slice: Int, i: Int): Int = slice * size + i
    (0 until 3).foreach(j => job(warm.slice(j * size / 2, (j + 1) * size / 2)))
    phase("warm-up")
    val runJob: Int => Vector[Vector[Route]] = j => {
      val s = j % slices
      job(items.slice(at(s, 0), at(s + 1, 0)))
    }
    val passes =
      if (!a.trace) {
        val p = loop(a.seconds, slices)(runJob)
        latencyMetrics(p, size, _ => 0)
        Vector(p)
      } else {
        val ((plain, traced), c) = SparkTools.counted(spark) {
          paired(a.seconds, slices, "spark.runner.job")(runJob)
        }
        overhead(plain, traced)
        sparkMetrics(c, 2L * plain.out.size * size)
        Vector(plain, traced)
      }
    phase("measured")
    // Reference answers: sequential Bssr; the first slice on one thread in
    // traced runs, where its time is the sequential baseline.
    val ref =
      if (!a.trace) reference(items.indices, SparkTools.Threads)
      else reference(0 until size, 1) ++ reference(size until items.size, SparkTools.Threads)
    val want = ref.map(r => routes(r._1))
    phase("reference answers")
    // Calls 0 until slices answer each slice once; repeats are compared
    // with those answers and fully checked only where they differ. Every
    // OsrEvery-th first answer is also compared with iterated OSR (Dij).
    val firstOut = passes.head.out.take(slices)
    val firstVerdicts = firstOut.zipWithIndex.map { case (out, s) =>
      parMap(0 until size) { i =>
        val k = at(s, i)
        val got = out.map(_(i))
        val v = Verdict(judge(item(k), got, Some(want(k))))
        if (k % OsrEvery != 0 || v.outcome.isInstanceOf[Outcome.Mismatch]) v
        else {
          val o = osrVerdict(item(k), got)
          if (o.outcome == Outcome.Exact) o.copy(outcome = v.outcome) else o
        }
      }
    }
    for (p <- passes; (out, j) <- p.out.zipWithIndex) tally {
      val s = j % slices
      if ((p eq passes.head) && j < slices) firstVerdicts(s)
      else parMap(0 until size) { i =>
        val same = for (x <- out.toOption; y <- firstOut(s).toOption) yield x(i) == y(i)
        if (same.contains(true)) firstVerdicts(s)(i)
        else Verdict(judge(item(at(s, i)), out.map(_(i)), Some(want(at(s, i)))))
      }
    }
    digest(firstOut.flatMap(o => (0 until size).map(i => o.map(_(i)))))
    counters(ref.map(_._1.metrics))
    if (a.trace) {
      val plain = passes.head
      val seqNs = ref.take(size).map(_._2.toDouble)
      val jobNs = Stats.mean(plain.latNs.take(plain.timed).zipWithIndex
        .collect { case (t, j) if j % slices == 0 => t.toDouble })
      val seqQps = size / (seqNs.sum / 1e9)
      rep.put("spark.runner.seq_qps", seqQps)
      rep.put("spark.runner.speedup", Metrics.ratio(size / (jobNs / 1e9), seqQps))
      rep.put("spark.runner.efficiency", Metrics.ratio(Stats.lptMakespan(seqNs, SparkTools.Threads), jobNs))
      val ps = (0 until size).map(i => probe(item(i), poiGraph = false))
      probeMetrics(ps)
      val ms = ref.take(size).map(_._1.metrics)
      bssrLayerMetrics(ms, (ms.map(_.search.settled).sum, ref.take(size).map(_._2).sum))
      pipelineLayer()
    }
  }

  /** The `core.pipeline` layer, traced: `BulkSkySRSpark.run` on a few
    * Tokyo |S_q| = 3 queries after a warm-up, each answer checked against
    * sequential `Bssr`, plus the layer's PoI-graph build and the bounded
    * `Dijkstra.fromSource` calls behind it.
    */
  private def pipelineLayer(): Unit = {
    val d = ds(0)
    val qs = Workloads.pipelineQueries(d, a.seed, Workloads.PipelineProbes)
    Workloads.pipelineQueries(d, Workloads.WarmSeed, 2)
      .foreach(it => BulkSkySRSpark.run(spark, d.g, d.forest, it.q))
    val runs = qs.map { it =>
      val (r, c) = SparkTools.counted(spark) {
        val t = System.nanoTime()
        val got = Try(BulkSkySRSpark.run(spark, d.g, d.forest, it.q).map(Route.of))
        spans += Span(-1, "core.pipeline.run", "probe", t, System.nanoTime())
        (got, System.nanoTime() - t)
      }
      (r._1, r._2, c)
    }
    tally(qs.zip(runs).map { case (it, (got, _, _)) =>
      Verdict(judge(it, got, Some(routes(threadSolvers.get()(it.ds).run(it.q)))))
    })
    def mean(f: ((Try[Vector[Route]], Long, SparkTools.Counter)) => Double): Double = Stats.mean(runs.map(f))
    rep.put("core.pipeline.query_ms", mean(_._2 / 1e6))
    rep.put("core.pipeline.jobs_per_query", mean(_._3.jobs.get.toDouble))
    rep.put("core.pipeline.tasks_per_query", mean(_._3.tasks.get.toDouble))
    rep.put("core.pipeline.shuffle_mb_per_query", mean(_._3.shuffleBytes.get / 1048576.0))
    val ps = qs.map(probe(_, poiGraph = true))
    rep.put("graph.from_source_us", Metrics.ratio(ps.map(_.fsNs).sum / 1e3, ps.map(_.fsCalls).sum))
    rep.put("core.pipeline.poi_graph_ms", Stats.mean(ps.map(_.poiGraphNs / 1e6)))
    rep.put("core.pipeline.poi_graph_rows", Stats.mean(ps.map(_.poiGraphRows.toDouble)))
  }

  // ---- entry ----------------------------------------------------------------

  /** Runs the workload; verification, heap and notes included. */
  def run(): Report = {
    try {
      setups()
      phase("set-up")
      w match {
        case "long"  => sequential()
        case "batch" => batch()
      }
      phase(if (a.trace && w == "batch") "checks and probes" else "checks")
      rep.note(s"verified ${rep.attempted} answers: ${rep.failed} failed " +
        s"(failed_frac ${rep.get("failed_frac")}), ${rep.get("verify.tie_splits").toLong} tie splits" +
        (if (rep.get("baselines.osr_runs") > 0)
          f", ${rep.get("baselines.dij_ms")}%.1f ms per iterated-OSR (Dij) check" else ""))
      rep.put("heap_mb", Bench.usedHeapMb())
      if (a.trace) writeSpans()
      rep.note(s"phases after JVM start: ${phases.mkString(", ")}")
      rep
    } finally sparkOpt.foreach(_.stop())
  }

  private def writeSpans(): Unit = {
    val f = new File(workDir, s"trace-$w-${a.seed}.jsonl")
    f.getParentFile.mkdirs()
    val out = new PrintWriter(f, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"call": ${s.call}, "layer": "${s.layer}", "parent": "${s.parent}", """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}""")
    } finally out.close()
    rep.note(s"spans: ${spans.size} written to ${f.getPath}")
  }
}

object Bench {
  /** Used heap after full collections, in MB: the median of three reads. */
  def usedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    Stats.median((1 to 3).map { _ =>
      System.gc()
      Thread.sleep(50)
      mem.getHeapMemoryUsage.getUsed / 1048576.0
    })
  }
}
