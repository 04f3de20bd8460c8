package skybench

import java.nio.file.{Files, Paths}

import scala.collection.mutable

import repro.baselines.{BaselineMetrics, IterativeOsr}
import repro.core.{Bssr, Query}
import repro.data.{Datasets, Workload}
import repro.semantics.CategoryForest

/** Tests of the benchmark's own logic: `python3 skybench/run.py --self-test`.
  * Prints one line per test and exits 1 if any fails.
  */
object SelfTest {

  private val failures = mutable.ArrayBuffer.empty[String]

  private def test(name: String)(body: => Unit): Unit = {
    val ok = try { body; true } catch {
      case e: Throwable => failures += name; println(s"FAIL $name: $e"); false
    }
    if (ok) println(s"ok   $name")
  }

  private def check(cond: Boolean, msg: => String): Unit =
    if (!cond) throw new AssertionError(msg)

  def main(argv: Array[String]): Unit = {
    tailRule()
    comparator()
    tieFixtures()
    seeds()
    benchmarkJson()
    println(if (failures.isEmpty) "all tests passed" else s"${failures.size} failed")
    sys.exit(if (failures.isEmpty) 0 else 1)
  }

  private def tailRule(): Unit = {
    val xs = (1 to 1000).map(_.toDouble)
    test("tail: 1000 samples -> p99, the 990th, with exactly 10 beyond") {
      check(Stats.tail(xs) == Some((99.0, 990.0)), s"${Stats.tail(xs)}")
      check(Stats.beyond(99.0, 1000) == 10, "beyond")
    }
    test("tail: 2000 samples -> p99.5") {
      check(Stats.tail((1 to 2000).map(_.toDouble)) == Some((99.5, 1990.0)), "p99.5")
    }
    test("tail: 999 samples -> p95, since p99 has only 9 beyond") {
      check(Stats.beyond(99.0, 999) == 9, "beyond p99")
      check(Stats.tail(xs.take(999)).map(_._1) == Some(95.0), s"${Stats.tail(xs.take(999))}")
    }
    test("tail: 100 samples -> p90; 20 -> p50; 10 -> undefined") {
      check(Stats.tail((1 to 100).map(_.toDouble)) == Some((90.0, 90.0)), "100")
      check(Stats.tail((1 to 20).map(_.toDouble)) == Some((50.0, 10.0)), "20")
      check(Stats.tail((1 to 10).map(_.toDouble)).isEmpty, "10")
    }
    test("tail: order of samples does not matter") {
      check(Stats.tail(xs.reverse) == Stats.tail(xs), "order")
    }
    test("median, geometric mean and LPT makespan") {
      check(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0, "odd")
      check(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5, "even")
      check(Stats.lptMakespan(Seq(3.0, 3.0, 2.0, 2.0, 2.0), 2) == 7.0, "lpt")
      check(math.abs(Stats.geoMean(Seq(2.0, 8.0)) - 4.0) < 1e-12, "geometric mean")
      check(Stats.geoMean(Seq(5.0)) == 5.0, "geometric mean of one")
    }
  }

  private def comparator(): Unit = {
    val a = Vector(Route(Vector(1, 2), 0.09009629317434631, 0.0), Route(Vector(3, 4), 0.05, 0.25))
    test("compare: identical points are exact, whatever the PoIs") {
      check(Verify.compare(a, a.map(_.copy(pois = Vector(9, 9)))) == Outcome.Exact, "exact")
    }
    test("compare: a 1-ulp shorter route is a tie split, not exact") {
      val b = a.updated(0, a(0).copy(length = 0.09009629317434632))
      check(Verify.compare(a, b) == Outcome.TieSplit, s"${Verify.compare(a, b)}")
      check(Verify.compare(b, a) == Outcome.TieSplit, "symmetric")
    }
    test("compare: a missing or distinctly longer route is a mismatch") {
      check(Verify.compare(a.take(1), a).isInstanceOf[Outcome.Mismatch], "missing")
      val c = a.updated(1, a(1).copy(length = 0.0501))
      check(Verify.compare(c, a).isInstanceOf[Outcome.Mismatch], "longer")
    }
  }

  /** Queries on which BSSR and PNE keep a route 1 ulp shorter than the
    * one iterated Dij keeps.
    */
  private def tieFixtures(): Unit = {
    val f = CategoryForest.foursquareLike
    for ((name, g, start, cats) <- Seq(
      ("Tokyo", Datasets.tokyoLite, 295, Vector(5, 30, 57)),
      ("NYC", Datasets.nycLite, 6295, Vector(60, 54, 44)))) {
      test(s"tie fixture $name Query(v=$start, S=${cats.mkString("<", ",", ">")})") {
        val q = Workload.queries(g, f, 6, 3, 80L).find(_.start == start)
          .getOrElse(throw new AssertionError("fixture query not generated"))
        check(q == Query(start, cats), s"generated $q")
        val bssr = new Bssr(g, f).run(q).skyline.map(Route.of)
        val dij = IterativeOsr.skySR(g, f, q, useDij = true, new BaselineMetrics).map(Route.of)
        check(Verify.compare(bssr, dij) == Outcome.TieSplit, s"${Verify.compare(bssr, dij)}")
        check(Verify.check(g, f, q, bssr, Some(dij)) == Outcome.TieSplit, "check")
      }
    }
  }

  private def seeds(): Unit = for (w <- Workloads.Names) {
    test(s"seeds: $w lists repeat per seed and differ between seeds") {
      val ds = Workloads.datasets(w)
      val a = Workloads.queries(w, ds, 11L, 20)
      check(a == Workloads.queries(w, ds, 11L, 20), "same seed, different list")
      check(a != Workloads.queries(w, ds, 12L, 20), "different seed, same list")
      check(a.map(_.q.size).toSet == Workloads.lengths(w).toSet, "lengths")
    }
  }

  /** BENCHMARK.json must list exactly the metrics the runs print. */
  private def benchmarkJson(): Unit = test("BENCHMARK.json lists the reported metrics") {
    val text = new String(Files.readAllBytes(Paths.get("BENCHMARK.json")), "UTF-8")
    def section(key: String): Vector[(String, String)] = {
      val body = text.split("\"" + key + "\"")(1).takeWhile(_ != ']')
      """\{"name": "([^"]+)", "unit": "([^"]+)"""".r.findAllMatchIn(body)
        .map(m => (m.group(1), m.group(2))).toVector
    }
    check(section("end_to_end") == Metrics.EndToEnd, s"end_to_end ${section("end_to_end")}")
    check(section("per_layer") == Metrics.PerLayer, s"per_layer ${section("per_layer")}")
    val workloads = """\{"name": "([^"]+)", "why"""".r.findAllMatchIn(text).map(_.group(1)).toVector
    check(workloads == Workloads.Names, s"workloads $workloads")
  }
}
