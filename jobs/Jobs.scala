package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchUtil, Tables}
import repro.data.{Datasets, Workload}
import repro.spark.DistributedQueryRunner

/** One `spark-submit` entrypoint per evaluation table (DESIGN.md §7).
  * Example: `spark-submit --class repro.jobs.Table7Job repro.jar`.
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

/** Table 1: NYC example SkySRs via the distributed pipeline. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("skysr-table1")
    println(Tables.table1(spark)._1)
    spark.stop()
  }
}

/** Table 4: the worked example's final state. */
object Table4Job {
  def main(args: Array[String]): Unit = println(Tables.table4()._1)
}

/** Table 5: dataset summary. */
object Table5Job {
  def main(args: Array[String]): Unit = println(Tables.table5()._1)
}

/** Table 6: memory model at |Sq| = 4. */
object Table6Job {
  def main(args: Array[String]): Unit = println(Tables.table6()._1)
}

/** Table 7: effect of the initial search. */
object Table7Job {
  def main(args: Array[String]): Unit = println(Tables.table7()._1)
}

/** Table 8: priority-queue policies. */
object Table8Job {
  def main(args: Array[String]): Unit = println(Tables.table8()._1)
}

/** Table 9: Tokyo use case via the distributed pipeline. */
object Table9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("skysr-table9")
    println(Tables.table9(spark)._1)
    spark.stop()
  }
}

/** Fig. 3 / Fig. 6 shapes: response times and SkySR counts. */
object ResponseTimeJob {
  def main(args: Array[String]): Unit = println(Tables.responseTime()._1)
}

/** Batch SkySR serving: a whole workload answered as one Spark job
  * (`args`: dataset [Tokyo|NYC|Cal], #queries, |Sq|).
  */
object BatchQueriesJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("Tokyo")
    val n       = args.lift(1).map(_.toInt).getOrElse(20)
    val len     = args.lift(2).map(_.toInt).getOrElse(3)
    val spark   = JobSession.local("skysr-batch")
    val (_, g, forest) = Datasets.all.find(_._1 == dataset)
      .getOrElse(sys.error(s"unknown dataset $dataset"))
    val qs = Workload.queries(g, forest, n, len, seed = 11L, minPois = 10)
    val df   = DistributedQueryRunner.run(spark, g, forest, qs)
    val rows = df.collect()
    println(BenchUtil.table(s"first 50 skyline routes of $dataset", df.columns.toSeq,
      rows.take(50).map(_.toSeq.map(_.toString)).toSeq))
    println(s"answered ${qs.size} queries; ${rows.length} skyline routes total")
    spark.stop()
  }
}
