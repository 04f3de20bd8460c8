package repro.graph

/** Binary min-heap of `(key, vertex, origin)` entries in two parallel
  * primitive arrays: the `Double` keys and one `Long` payload per entry,
  * `origin << 32 | vertex`, so a sift step moves two slots. It is the
  * priority queue of every Dijkstra loop in the repository (`Dijkstra`,
  * `NearestNeighborSearch`, `Bssr.expand`). Pushing allocates nothing until
  * the arrays double; `clear()` keeps them for the next search.
  *
  * Tie order: the layout (1-indexed) and both sift rules are those of
  * `scala.collection.mutable.PriorityQueue` (Scala 2.13) under a reversed
  * key ordering, so entries with equal keys pop in exactly the order such a
  * queue would pop them: which of two equal-distance vertices settles
  * first, and so every search counter, is the same as with a boxed
  * `PriorityQueue` of the same pushes. Keys must not be NaN.
  */
final class MinHeap(initialCapacity: Int = 64) {
  private var keys     = new Array[Double](initialCapacity + 1)
  private var payloads = new Array[Long](initialCapacity + 1)
  private var n        = 0 // entries live at 1..n

  def size: Int         = n
  def nonEmpty: Boolean = n != 0
  def clear(): Unit     = n = 0

  /** The minimum entry's fields; the heap must be non-empty. */
  def minKey: Double = keys(1)
  def minVertex: Int = payloads(1).toInt
  def minOrigin: Int = (payloads(1) >> 32).toInt

  def push(key: Double, vertex: Int, origin: Int): Unit = {
    n += 1
    if (n == keys.length) grow()
    val payload = origin.toLong << 32 | (vertex & 0xFFFFFFFFL)
    // fixUp: move parents down while parent key > new key.
    var k = n
    while (k > 1 && keys(k >> 1) > key) {
      val p = k >> 1
      keys(k) = keys(p); payloads(k) = payloads(p)
      k = p
    }
    keys(k) = key; payloads(k) = payload
  }

  /** Removes the minimum entry (read it first through `min*`). */
  def pop(): Unit = {
    if (n == 0) throw new NoSuchElementException("pop on an empty heap")
    val key = keys(n); val payload = payloads(n)
    n -= 1
    // fixDown of the last entry from the root: take the right child iff
    // key(left) > key(right); stop once the moved key <= the child's key.
    var k = 1
    var placed = false
    while (!placed && 2 * k <= n) {
      var j = 2 * k
      if (j < n && keys(j) > keys(j + 1)) j += 1
      if (key <= keys(j)) placed = true
      else {
        keys(k) = keys(j); payloads(k) = payloads(j)
        k = j
      }
    }
    keys(k) = key; payloads(k) = payload
  }

  private def grow(): Unit = {
    val cap = keys.length * 2
    keys = java.util.Arrays.copyOf(keys, cap)
    payloads = java.util.Arrays.copyOf(payloads, cap)
  }
}
