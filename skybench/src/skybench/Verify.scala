package skybench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest

import repro.core.{Query, SRoute, Skyline}
import repro.graph.{Dijkstra, RoadGraph}
import repro.semantics.CategoryForest

/** One returned route, whatever entry point produced it. */
final case class Route(pois: Vector[Int], length: Double, sem: Double)

object Route {
  def of(r: SRoute): Route = Route(r.pois, r.length, r.semScore)
}

/** How two skylines for the same query compare. */
sealed trait Outcome
object Outcome {
  /** The same (length, semantic) points, bit for bit. */
  case object Exact extends Outcome
  /** Not bit-identical, but each point of either side is matched within
    * epsilon by a point of the other: a floating-point tie broken
    * differently (a route kept by one solver is 1 ulp shorter than the one
    * the other kept). Counted, never passed off as exact.
    */
  case object TieSplit extends Outcome
  final case class Mismatch(why: String) extends Outcome
}

/** Answer checks run outside the timed region. */
object Verify {

  val Eps: Double = 1e-9

  private def points(rs: Seq[Route]): Vector[(Double, Double)] =
    rs.map(r => (r.length, r.sem)).sorted.toVector

  /** `a` is within epsilon of dominating or matching `b`. */
  private def epsCovers(a: (Double, Double), b: (Double, Double), eps: Double): Boolean =
    a._1 <= b._1 + eps && a._2 <= b._2 + eps

  /** Compares skylines by epsilon-dominance in both directions. */
  def compare(got: Seq[Route], want: Seq[Route], eps: Double = Eps): Outcome = {
    val a = points(got)
    val b = points(want)
    if (a == b) Outcome.Exact
    else {
      val aMissed = b.filterNot(p => a.exists(epsCovers(_, p, eps)))
      val bMissed = a.filterNot(p => b.exists(epsCovers(_, p, eps)))
      if (aMissed.isEmpty && bMissed.isEmpty) Outcome.TieSplit
      else Outcome.Mismatch(
        s"skylines differ: got ${a.mkString(" ")} want ${b.mkString(" ")}")
    }
  }

  /** Re-scores one route from scratch: each leg by point-to-point Dijkstra
    * and each position's similarity by `CategoryForest.sim`.
    */
  def rescore(g: RoadGraph, forest: CategoryForest, q: Query, r: Route,
              tol: Double = Eps): Option[String] = {
    if (r.pois.size != q.size) return Some(s"route $r has ${r.pois.size} PoIs, query has ${q.size}")
    if (r.pois.distinct.size != r.pois.size) return Some(s"route $r repeats a PoI")
    var len  = 0.0
    var prod = 1.0
    var from = q.start
    var i = 0
    while (i < r.pois.size) {
      val p = r.pois(i)
      if (p < 0 || p >= g.numVertices || !g.isPoi(p)) return Some(s"route $r visits non-PoI $p")
      val s = forest.sim(q.categories(i), g.poiCategory(p))
      if (s <= 0.0) return Some(s"route $r: PoI $p does not match position $i")
      len += Dijkstra.distBetween(g, from, p)
      prod *= s
      from = p
      i += 1
    }
    q.destination.foreach(d => len += Dijkstra.distBetween(g, from, d))
    if (math.abs(len - r.length) > tol) Some(s"route $r: re-scored length $len")
    else if (math.abs((1.0 - prod) - r.sem) > tol) Some(s"route $r: re-scored sem ${1.0 - prod}")
    else None
  }

  /** A skyline holds no two points where one dominates or equals the other. */
  def isMinimal(rs: Seq[Route]): Option[String] = {
    val bad = for {
      (a, i) <- rs.zipWithIndex
      (b, j) <- rs.zipWithIndex
      if i != j && Skyline.dominatesOrEquiv(a.length, a.sem, b.length, b.sem)
    } yield s"$a dominates $b"
    bad.headOption
  }

  /** Full check of one answer, optionally against a reference skyline. */
  def check(g: RoadGraph, forest: CategoryForest, q: Query, got: Seq[Route],
            want: Option[Seq[Route]]): Outcome = {
    val own = if (got.isEmpty) Some(s"empty skyline for $q")
      else isMinimal(got).orElse(got.iterator.flatMap(rescore(g, forest, q, _)).nextOption())
    own match {
      case Some(why) => Outcome.Mismatch(s"$q: $why")
      case None => want.fold[Outcome](Outcome.Exact)(compare(got, _)) match {
        case Outcome.Mismatch(why) => Outcome.Mismatch(s"$q: $why")
        case o => o
      }
    }
  }

  /** Line a digest hashes for one answer: its points rounded to 1e-9. */
  def digestLine(rs: Seq[Route]): String =
    points(rs).map { case (l, s) => f"$l%.9f:$s%.9f" }.mkString(" ")

  /** SHA-256 of the answer lines, in query order. */
  def digest(lines: Seq[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines.foreach(l => md.update((l + "\n").getBytes(StandardCharsets.UTF_8)))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** The first 13 hex digits of a digest, exact as a JSON number. */
  def digestNumber(hex: String): Double = java.lang.Long.parseLong(hex.take(13), 16).toDouble
}
