package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import repro.data.{Datasets, Workload}
import repro.spark.DistributedQueryRunner

/** The `spark-submit` entrypoints (DESIGN.md §7).
  * Example: `spark-submit --class repro.jobs.TablesJob repro.jar 6 7`.
  */
private object JobSession {
  def local(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

/** Prints the evaluation tables its arguments name (`1 4 5 6 7 8 9 rt`, in
  * the order given), or every table when given none. Spark starts only for
  * Tables 1 and 9, the distributed-pipeline use cases; `rt` is the Fig. 3 /
  * Fig. 6 response-time table.
  */
object TablesJob {
  private val printers: Seq[(String, (=> SparkSession) => String)] = Seq(
    "1"  -> (spark => Tables.table1(spark)._1),
    "4"  -> (_ => Tables.table4()._1),
    "5"  -> (_ => Tables.table5()._1),
    "6"  -> (_ => Tables.table6()._1),
    "7"  -> (_ => Tables.table7()._1),
    "8"  -> (_ => Tables.table8()._1),
    "9"  -> (spark => Tables.table9(spark)._1),
    "rt" -> (_ => Tables.responseTime()._1))

  def main(args: Array[String]): Unit = {
    val known = printers.toMap
    args.find(!known.contains(_)).foreach(n => throw new IllegalArgumentException(
      s"unknown table '$n' (known: ${printers.map(_._1).mkString(" ")})"))
    var spark: SparkSession = null
    def session = { if (spark == null) spark = JobSession.local("skysr-tables"); spark }
    try (if (args.isEmpty) printers.map(_._1) else args.toSeq).foreach(n => println(known(n)(session)))
    finally if (spark != null) spark.stop()
  }
}

/** Batch SkySR serving: a whole workload answered as one Spark job
  * (`args`: dataset [Tokyo|NYC|Cal], #queries, |Sq|). The arguments are
  * checked, and the queries drawn, before Spark starts.
  */
object BatchQueriesJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("Tokyo")
    val (_, g, forest) = Datasets.all.find(_._1 == dataset).getOrElse(
      throw new IllegalArgumentException(
        s"unknown dataset '$dataset' (known: ${Datasets.all.map(_._1).mkString(" ")})"))
    def positive(i: Int, what: String, default: Int): Int = {
      val v = args.lift(i).fold(default)(_.toInt)
      if (v < 1) throw new IllegalArgumentException(s"$what must be positive, got $v")
      v
    }
    val qs = Workload.queries(g, forest, positive(1, "#queries", 20), positive(2, "|Sq|", 3),
      seed = 11L, minPois = 10)
    val spark = JobSession.local("skysr-batch")
    try {
      val df   = DistributedQueryRunner.run(spark, g, forest, qs)
      val rows = df.collect()
      println(Tables.table(s"first 50 skyline routes of $dataset", df.columns.toSeq,
        rows.take(50).map(_.toSeq.map(_.toString)).toSeq))
      println(s"answered ${qs.size} queries; ${rows.length} skyline routes total")
    } finally spark.stop()
  }
}
