package repro.jobs

import repro.SparkSpec

/** `BatchQueriesJob` rejects bad arguments before it starts Spark. A job that
  * started first would get this run's shared session from `getOrCreate`, and
  * its `stop()` would stop that session for every later suite.
  */
class BatchQueriesJobSpec extends SparkSpec {

  private def rejects(args: String*): IllegalArgumentException = {
    val sc = spark.sparkContext
    val e  = intercept[IllegalArgumentException](BatchQueriesJob.main(args.toArray))
    assert(!sc.isStopped, "the job stopped the shared session")
    e
  }

  test("BatchQueriesJob rejects an unknown dataset, naming it, before starting Spark") {
    val e = rejects("Osaka", "5", "3")
    assert(e.getMessage.contains("'Osaka'"), e.getMessage)
  }

  test("BatchQueriesJob rejects a non-positive |Sq| before starting Spark") {
    for (len <- Seq("0", "-2")) {
      val e = rejects("Tokyo", "5", len)
      assert(e.getMessage.contains(s"|Sq| must be positive, got $len"), e.getMessage)
    }
  }
}
