package skybench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** The benchmark's own Spark session and job counters. */
object SparkTools {

  /** Local threads: at most four, and never more than the host's cores. */
  val Threads: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors()))

  /** Shuffle partitions, stated explicitly: 2 × the most threads, instead
    * of Spark's default of 200, which made one `BulkSkySRSpark` query run
    * about 1,250 tasks (adaptive execution stays on).
    */
  val ShufflePartitions: Int = 8

  def start(workDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$Threads]")
      .appName("skybench")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def settings(spark: SparkSession): String =
    s"master=${spark.sparkContext.master} ui=off log=WARN " +
      s"spark.sql.shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")}"

  /** Counts jobs, tasks and shuffle bytes written while registered. */
  final class Counter extends SparkListener {
    val jobs         = new AtomicLong
    val tasks        = new AtomicLong
    val shuffleBytes = new AtomicLong
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      if (e.taskMetrics != null)
        shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Registers a counter, runs `body`, and reads the counts once every
    * event posted during `body` has been delivered.
    */
  def counted[A](spark: SparkSession)(body: => A): (A, Counter) = {
    val c = new Counter
    spark.sparkContext.addSparkListener(c)
    try {
      val a = body
      org.apache.spark.SkybenchBus.drain(spark.sparkContext)
      (a, c)
    } finally spark.sparkContext.removeSparkListener(c)
  }
}
