package skybench

import java.net.{URL, URLClassLoader}

import repro.core.{Bssr, Query}
import repro.data.{Datasets, Workload}
import repro.graph.RoadGraph
import repro.semantics.CategoryForest

final case class DataSet(name: String, g: RoadGraph, forest: CategoryForest)

/** One query of a workload, tagged with the dataset it runs on. */
final case class Item(ds: Int, q: Query)

/** What each workload runs on, and the queries it sends. */
object Workloads {

  val Names: Vector[String] = Vector("long", "batch")

  /** Queries per `batch` job. */
  val BatchJob: Int = 400

  /** Distinct `batch` jobs per seed; the measured pass cycles through them. */
  val BatchSlices: Int = 3

  /** `BulkSkySRSpark` queries timed in a traced `batch` run. */
  val PipelineProbes: Int = 3

  /** Warm-up queries come from this fixed seed, so every run warms the JIT
    * on the same inputs whatever its `--seed`.
    */
  val WarmSeed: Long = 0x5eedL

  def usesSpark(w: String): Boolean = w == "batch"

  def datasets(w: String): Vector[DataSet] = w match {
    case "long" =>
      Datasets.all.map { case (n, g, f) => DataSet(n, g, f) }.toVector
    case _ => Vector(DataSet("Tokyo", Datasets.tokyoLite, CategoryForest.foursquareLike))
  }

  /** |S_q| values; each dataset gets one query stream per length. */
  def lengths(w: String): Vector[Int] = w match {
    case "long"  => Vector(5)
    case "batch" => Vector(4)
  }

  /** Queries per stream: more than a measured pass uses up on `long`;
    * [[BatchSlices]] jobs on `batch`, which cycles through them.
    */
  def perStream(w: String): Int = w match {
    case "long"  => 700
    case "batch" => BatchSlices * BatchJob
  }

  /** Forces the per-graph tables that every query path reads. */
  def touch(ds: Seq[DataSet]): Unit = ds.foreach { d =>
    d.g.pois; d.g.poisByCategory; d.g.categoryCounts; d.forest.leaves
  }

  /** `n` queries per (dataset, length) stream, interleaved round-robin. */
  def queries(w: String, ds: Vector[DataSet], seed: Long, n: Int): Vector[Item] = {
    val streams = for {
      (d, i) <- ds.zipWithIndex
      len    <- lengths(w)
    } yield Workload.queries(d.g, d.forest, n, len, seed * 1000003L + i * 31L + len).map(Item(i, _))
    (0 until n).flatMap(j => streams.map(_(j))).toVector
  }

  /** Tokyo |S_q| = 3 queries for the traced `BulkSkySRSpark` calls. */
  def pipelineQueries(d: DataSet, seed: Long, n: Int): Vector[Item] =
    Workload.queries(d.g, d.forest, n, 3, seed * 1000003L + 97L).map(Item(0, _))

  /** One sequential solver per dataset. */
  def solvers(ds: Vector[DataSet]): Vector[Bssr] = ds.map(d => new Bssr(d.g, d.forest))

  /** Repeats the non-Spark set-up in a fresh class loader, so dataset
    * generation and the lazy graph tables run again instead of being
    * served from this JVM's memo. Returns (generation s, set-up s).
    */
  def freshSetup(w: String, seed: Long): (Double, Double) = {
    val here = classOf[DataSet].getProtectionDomain.getCodeSource.getLocation
    val loader = new FreshLoader(Array(here), getClass.getClassLoader)
    try {
      val m = loader.loadClass("skybench.SetupProbe")
        .getMethod("run", classOf[String], java.lang.Long.TYPE)
      val r = m.invoke(null, w, java.lang.Long.valueOf(seed)).asInstanceOf[Array[Double]]
      (r(0), r(1))
    } finally loader.close()
  }
}

/** Defines the program's and the benchmark's classes itself instead of
  * asking its parent, so their static state starts empty.
  */
final class FreshLoader(urls: Array[URL], parent: ClassLoader)
    extends URLClassLoader(urls, parent) {
  override protected def loadClass(name: String, resolve: Boolean): Class[_] =
    getClassLoadingLock(name).synchronized {
      if (name.startsWith("repro.") || name.startsWith("skybench.")) {
        val c = Option(findLoadedClass(name)).getOrElse(findClass(name))
        if (resolve) resolveClass(c)
        c
      } else super.loadClass(name, resolve)
    }
}

/** The set-up a workload does before its first query, minus Spark. */
object SetupProbe {
  def run(w: String, seed: Long): Array[Double] = {
    val t0 = System.nanoTime()
    val ds = Workloads.datasets(w)
    val t1 = System.nanoTime()
    Workloads.touch(ds)
    Workloads.solvers(ds)
    Workloads.queries(w, ds, seed, Workloads.perStream(w))
    val t2 = System.nanoTime()
    Array((t1 - t0) / 1e9, (t2 - t0) / 1e9)
  }
}
