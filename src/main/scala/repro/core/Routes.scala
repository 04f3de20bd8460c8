package repro.core

import repro.semantics.CategoryForest

import scala.collection.mutable

/** A SkySR query: a start vertex and a sequence of category ids (Def. 4.2).
  * `destination`, when set, is the "SkySR with destination" variation of §6:
  * the network distance from the last PoI to the destination is added to the
  * length score.
  */
final case class Query(start: Int, categories: Vector[Int],
                       destination: Option[Int] = None) {
  def size: Int = categories.size
  def specs: Vector[PositionSpec] = categories.map(PositionSpec.simple)
  override def toString: String =
    s"Query(v=$start, S=${categories.mkString("<", ",", ">")}" +
      destination.fold("")(d => s", dest=$d") + ")"
}

/** One position of a complex category requirement (§6): a PoI matches with
  * the best similarity over `anyOf` (disjunction; a multi-category PoI is
  * the same thing seen from the data side), unless its category is in
  * `noneOf` (negation). A plain position is `PositionSpec(Vector(c))`.
  */
final case class PositionSpec(anyOf: Vector[Int], noneOf: Set[Int] = Set.empty) {
  require(anyOf.nonEmpty, "empty disjunction")
}

object PositionSpec {
  def simple(c: Int): PositionSpec = PositionSpec(Vector(c))

  /** Every category id of `spec` is a category of `forest`. */
  def requireCategories(forest: CategoryForest, spec: PositionSpec): Unit =
    (spec.anyOf ++ spec.noneOf).foreach(c =>
      require(c >= 0 && c < forest.size, s"category id $c out of range [0, ${forest.size})"))

  /** Per-category similarity table for a spec (0 for negated categories):
    * the semantic hierarchy filter of one query position (Eq. 6/7). Every
    * similarity table of the search paths is built here.
    */
  def simTable(forest: CategoryForest, spec: PositionSpec): Array[Double] = {
    requireCategories(forest, spec)
    Array.tabulate(forest.size) { c =>
      if (spec.noneOf.contains(c)) 0.0
      else spec.anyOf.map(a => forest.sim(a, c)).max
    }
  }
}

/** A (possibly partial) route: the PoI vertices visited so far, the length
  * score accumulated so far, and the product of per-position category
  * similarities (Def. 3.5).
  *
  * For a complete sequenced route `semScore == 1 - simProduct` is the exact
  * semantic score (Eq. 7); for a partial route it is the *possible minimum*
  * semantic score `underline-s(R)` — the score reached if every remaining
  * position matches perfectly — which is exactly the lower bound used by
  * Lemma 5.2.
  */
final case class SRoute(pois: Vector[Int], length: Double, simProduct: Double) {
  def size: Int       = pois.size
  def isEmpty: Boolean = pois.isEmpty
  def end: Int        = pois.last
  def semScore: Double = 1.0 - simProduct
  /** `pois.contains(p)` without boxing `p`. */
  def contains(p: Int): Boolean = {
    var i = 0
    while (i < pois.length) {
      if (pois(i) == p) return true
      i += 1
    }
    false
  }
  def extend(p: Int, legDist: Double, sim: Double): SRoute =
    SRoute(pois :+ p, length + legDist, simProduct * sim)

  /** The finished route with the §6 destination leg added (`distToDest` as in
    * [[QueryPlan]]); None if its last PoI cannot reach the destination.
    */
  def toDestination(distToDest: Option[Array[Double]]): Option[SRoute] = distToDest match {
    case None => Some(this)
    case Some(dd) =>
      val leg = dd(end)
      if (leg.isInfinity) None else Some(copy(length = length + leg))
  }

  override def toString: String =
    f"SRoute(${pois.mkString("<", ",", ">")}, l=$length%.3f, s=$semScore%.3f)"
}

object SRoute {
  /** The empty route anchored at the start vertex (length 0, product 1). */
  val empty: SRoute = SRoute(Vector.empty, 0.0, 1.0)
}

/** Dominance and skyline utilities over (length, semantic) score pairs
  * (Def. 4.1).
  */
object Skyline {

  /** `a` dominates or is equivalent to `b` (both scores no worse). */
  def dominatesOrEquiv(aL: Double, aS: Double, bL: Double, bS: Double): Boolean =
    aL <= bL && aS <= bS

  /** Strict dominance: no worse in both, strictly better in at least one. */
  def dominates(aL: Double, aS: Double, bL: Double, bS: Double): Boolean =
    dominatesOrEquiv(aL, aS, bL, bS) && (aL < bL || aS < bS)
}

/** The evolving minimal set `S` of sequenced routes (Def. 4.2), kept sorted
  * by length ascending (hence semantic score strictly descending). Small by
  * construction — the paper observes |S| stays in the single digits — so
  * linear scans are the right tool (Eq. 3 "has a small computation cost").
  */
final class SkylineSet {
  private val members = mutable.ArrayBuffer.empty[SRoute]

  def size: Int = members.size
  def isEmpty: Boolean = members.isEmpty
  def all: Vector[SRoute] = members.toVector

  /** Insert `r` unless dominated by or equivalent to a member; evict members
    * `r` dominates. Returns true iff `r` was inserted (Lemma 5.1 update).
    */
  def update(r: SRoute): Boolean = {
    var i = 0
    while (i < members.size) {
      val m = members(i)
      if (Skyline.dominatesOrEquiv(m.length, m.semScore, r.length, r.semScore)) return false
      i += 1
    }
    members.filterInPlace(m => !Skyline.dominatesOrEquiv(r.length, r.semScore, m.length, m.semScore))
    val at = members.indexWhere(_.length > r.length)
    if (at < 0) members += r else members.insert(at, r)
    true
  }

  /** Threshold `l̄` of Eq. (3): the smallest length of a member whose
    * semantic score is ≤ the given semantic lower bound; +∞ if none.
    */
  def thresholdFor(semLowerBound: Double): Double = {
    var i = 0
    while (i < members.size) {
      if (members(i).semScore <= semLowerBound) return members(i).length
      i += 1
    }
    Double.PositiveInfinity
  }
}

object SkylineSet {

  /** Minimal skyline of a route set, folded through `update`: drops dominated
    * routes, keeps the first route in input order per equivalent (l, s)
    * point, sorted by length ascending.
    */
  def of(routes: Iterable[SRoute]): Vector[SRoute] = {
    val sky = new SkylineSet
    routes.foreach(sky.update)
    sky.all
  }
}
