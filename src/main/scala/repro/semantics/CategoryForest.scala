package repro.semantics

import scala.collection.mutable

/** A semantic hierarchy of PoI categories — a forest of rooted trees
  * ("category trees" in the paper, Fig. 2).
  *
  * Categories are dense ids `0 until size`, each after its parent
  * (`parent(c) < c`). `parent(c) == -1` marks a tree root. Depth of a root
  * is 1 (so Wu–Palmer similarity is strictly positive within a tree and
  * exactly 1 only for identical categories).
  *
  * The paper's Eq. (6) — `max_{ci ∈ a(c')} 2·d(cm)/(d(c)+d(c'))` — reduces to
  * the standard Wu–Palmer measure `2·d(lca(c,c'))/(d(c)+d(c'))` because the
  * maximizing ancestor is `c'` itself (proved in `CategoryForestSpec`).
  */
final class CategoryForest private (
    val parent: Array[Int],
    val names: Array[String],
) extends Serializable {

  val size: Int = parent.length

  /** Depth of each category; roots have depth 1. */
  val depth: Array[Int] = {
    val d = new Array[Int](size)
    for (c <- 0 until size) d(c) = if (parent(c) < 0) 1 else d(parent(c)) + 1
    d
  }

  /** Root (tree id) of each category. */
  val treeOf: Array[Int] = {
    val t = new Array[Int](size)
    for (c <- 0 until size) t(c) = if (parent(c) < 0) c else t(parent(c))
    t
  }

  /** Children adjacency, for generators and tests. */
  val childrenOf: Array[Array[Int]] = {
    val buf = Array.fill(size)(mutable.ArrayBuffer.empty[Int])
    for (c <- 0 until size; p = parent(c); if p >= 0) buf(p) += c
    buf.map(_.toArray)
  }

  def isRoot(c: Int): Boolean  = parent(c) < 0
  def isLeaf(c: Int): Boolean  = childrenOf(c).isEmpty
  def sameTree(a: Int, b: Int): Boolean = treeOf(a) == treeOf(b)

  /** Deepest common ancestor, or -1 if the categories live in different trees. */
  def lca(a: Int, b: Int): Int = {
    if (!sameTree(a, b)) -1
    else {
      var x = a; var y = b
      while (depth(x) > depth(y)) x = parent(x)
      while (depth(y) > depth(x)) y = parent(y)
      while (x != y) { x = parent(x); y = parent(y) }
      x
    }
  }

  /** Wu–Palmer similarity (paper Eq. 6). 0 across trees; 1 iff identical. */
  def sim(a: Int, b: Int): Double = {
    val m = lca(a, b)
    if (m < 0) 0.0 else 2.0 * depth(m) / (depth(a) + depth(b))
  }

  def categories: Range = 0 until size

  /** Categories that are not tree roots — the ones PoIs get assigned. */
  lazy val nonRoots: Array[Int] = categories.filter(!isRoot(_)).toArray

  lazy val leaves: Array[Int] = categories.filter(isLeaf).toArray

  def nameOf(c: Int): String = names(c)
  def idOf(name: String): Int = {
    val i = names.indexOf(name)
    require(i >= 0, s"unknown category name: $name")
    i
  }
}

object CategoryForest {

  /** Build from parent ids; each parent is -1 (a root) or an earlier id. */
  def fromParents(parent: Array[Int], names: Array[String]): CategoryForest = {
    require(parent.length == names.length, "parent/names length mismatch")
    for (c <- parent.indices) require(parent(c) >= -1 && parent(c) < c,
      s"category ${names(c)} (id $c): parent ${parent(c)} is neither -1 nor an earlier id")
    new CategoryForest(parent.clone(), names.clone())
  }

  /** Build from (name, parentName-or-empty) pairs; parents must precede children. */
  def fromNamed(entries: Seq[(String, String)]): CategoryForest = {
    val names = entries.map(_._1).toArray
    require(names.distinct.length == names.length, "duplicate category names")
    val idx = names.zipWithIndex.toMap
    val parent = entries.map { case (n, p) =>
      if (p.isEmpty) -1
      else idx.getOrElse(p, throw new IllegalArgumentException(s"category $n: unknown parent $p"))
    }.toArray
    fromParents(parent, names)
  }

  /** Cal-style synthetic forest (paper §7.1 footnote 5): trees of the given
    * height where every non-leaf has `branching` children. 49 trees × 13
    * nodes ≈ the Cal dataset's 635 categories.
    */
  def generated(numTrees: Int, branching: Int, height: Int): CategoryForest = {
    val parent = mutable.ArrayBuffer.empty[Int]
    val names  = mutable.ArrayBuffer.empty[String]
    for (t <- 0 until numTrees) {
      def grow(parentId: Int, d: Int, label: String): Unit = {
        val id = parent.length
        parent += parentId
        names += label
        if (d < height) (0 until branching).foreach(i => grow(id, d + 1, s"$label.$i"))
      }
      grow(-1, 1, s"T$t")
    }
    fromParents(parent.toArray, names.toArray)
  }

  /** A 10-tree forest mirroring Foursquare's top-level category trees, with
    * the concrete categories used in the paper's examples (Tables 1 and 9,
    * Figs. 1–2).
    */
  lazy val foursquareLike: CategoryForest = fromNamed(Seq(
    "Food"                        -> "",
    "Asian Restaurant"            -> "Food",
    "Italian Restaurant"          -> "Food",
    "Bakery"                      -> "Food",
    "Cafe"                        -> "Food",
    "American Restaurant"         -> "Food",
    "Dessert Shop"                -> "Food",
    "Cupcake Shop"                -> "Dessert Shop",
    "Ice Cream Shop"              -> "Dessert Shop",
    "Japanese Restaurant"         -> "Food",
    "Sushi Restaurant"            -> "Japanese Restaurant",
    "Ramen Restaurant"            -> "Japanese Restaurant",
    "Mexican Restaurant"          -> "Food",
    "Taco Place"                  -> "Mexican Restaurant",

    "Nightlife Spot"              -> "",
    "Bar"                         -> "Nightlife Spot",
    "Beer Garden"                 -> "Bar",
    "Sake Bar"                    -> "Bar",
    "Wine Bar"                    -> "Bar",
    "Pub"                         -> "Bar",
    "Nightclub"                   -> "Nightlife Spot",

    "Arts & Entertainment"        -> "",
    "Museum"                      -> "Arts & Entertainment",
    "Art Museum"                  -> "Museum",
    "History Museum"              -> "Museum",
    "Science Museum"              -> "Museum",
    "Music Venue"                 -> "Arts & Entertainment",
    "Jazz Club"                   -> "Music Venue",
    "Rock Club"                   -> "Music Venue",
    "Theater"                     -> "Arts & Entertainment",
    "Movie Theater"               -> "Arts & Entertainment",
    "Casino"                      -> "Arts & Entertainment",

    "Shop & Service"              -> "",
    "Gift Shop"                   -> "Shop & Service",
    "Hobby Shop"                  -> "Shop & Service",
    "Bookstore"                   -> "Shop & Service",
    "Clothing Store"              -> "Shop & Service",
    "Boutique"                    -> "Clothing Store",
    "Food & Drink Shop"           -> "Shop & Service",
    "Liquor Store"                -> "Food & Drink Shop",
    "Grocery Store"               -> "Food & Drink Shop",

    "Outdoors & Recreation"       -> "",
    "Park"                        -> "Outdoors & Recreation",
    "Gym"                         -> "Outdoors & Recreation",
    "Yoga Studio"                 -> "Gym",
    "Beach"                       -> "Outdoors & Recreation",
    "Playground"                  -> "Outdoors & Recreation",

    "Travel & Transport"          -> "",
    "Hotel"                       -> "Travel & Transport",
    "Hostel"                      -> "Hotel",
    "Train Station"               -> "Travel & Transport",
    "Bus Station"                 -> "Travel & Transport",
    "Airport"                     -> "Travel & Transport",

    "College & University"        -> "",
    "University"                  -> "College & University",
    "Community College"           -> "College & University",

    "Professional & Other Places" -> "",
    "Office"                      -> "Professional & Other Places",
    "Medical Center"              -> "Professional & Other Places",
    "Hospital"                    -> "Medical Center",
    "School"                      -> "Professional & Other Places",

    "Residence"                   -> "",
    "Home"                        -> "Residence",
    "Apartment"                   -> "Residence",

    "Event"                       -> "",
    "Festival"                    -> "Event",
    "Parade"                      -> "Event",
  ))
}
