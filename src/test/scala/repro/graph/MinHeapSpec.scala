package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

import scala.collection.mutable

/** `MinHeap` must pop ties in exactly the order of a `mutable.PriorityQueue`
  * ordered by key alone (reversed into a min-queue): every search's
  * counters depend on which of two equal-distance entries settles first.
  */
class MinHeapSpec extends AnyFunSuite {

  private type Entry = (Double, Int, Int)
  private val byKey: Ordering[Entry] = Ordering.by[Entry, Double](_._1).reverse

  /** A push (`Some(key)`) or a pop (`None`); keys from a four-value set, so
    * most pushes tie with an entry already queued.
    */
  private val op: Gen[Option[Double]] =
    Gen.frequency(3 -> Gen.oneOf(0.0, 0.5, 1.0, 2.5).map(Some(_)), 2 -> Gen.const(None))
  private val ops: Gen[List[Option[Double]]] = Gen.choose(0, 300).flatMap(Gen.listOfN(_, op))

  /** Applies `script` to both queues, then empties them if `drain`; returns
    * the popped entries of each. Payloads `(vertex, origin)` are distinct per
    * push and vertices repeat, as in a lazy-deletion Dijkstra.
    */
  private def replay(h: MinHeap, pq: mutable.PriorityQueue[Entry], script: List[Option[Double]],
                     drain: Boolean): (Vector[Entry], Vector[Entry]) = {
    val got, want = Vector.newBuilder[Entry]
    def popBoth(): Unit = {
      got += ((h.minKey, h.minVertex, h.minOrigin)); h.pop()
      want += pq.dequeue()
    }
    script.zipWithIndex.foreach {
      case (Some(key), i) => h.push(key, i % 7, i); pq.enqueue((key, i % 7, i))
      case (None, _)      => if (pq.nonEmpty) popBoth()
    }
    assert(h.size == pq.size)
    if (drain) while (pq.nonEmpty) popBoth()
    (got.result(), want.result())
  }

  test("pops equal keys in PriorityQueue order, across growth and reuse after clear()") {
    val prop = Prop.forAll(ops, ops) { (first, second) =>
      val h  = new MinHeap(2) // forces several doublings
      val pq = mutable.PriorityQueue.empty[Entry](byKey)
      val (g1, w1) = replay(h, pq, first, drain = false)
      h.clear(); pq.clear()
      assert(h.size == 0)
      val (g2, w2) = replay(h, pq, second, drain = true)
      g1 == w1 && g2 == w2
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(1)))
  }

  test("vertex and origin ids 0 and Int.MaxValue - 1 round-trip, mixed in one heap") {
    val ids = Seq(0, Int.MaxValue - 1)
    val pairs = for (v <- ids; o <- ids) yield (v, o)
    // Every pair twice, pushed in descending key order so each push sifts to
    // the root and each pop sifts the last entry back down.
    val entries: Seq[Entry] = (pairs ++ pairs).zipWithIndex.map { case ((v, o), i) => (i.toDouble, v, o) }
    val h = new MinHeap(1)
    entries.reverse.foreach { case (key, v, o) => h.push(key, v, o) }
    val popped = Vector.fill(entries.size) {
      val e = (h.minKey, h.minVertex, h.minOrigin); h.pop(); e
    }
    assert(popped == entries)
  }

  test("pop on an empty heap throws") {
    val h = new MinHeap(1)
    h.push(1.0, 3, 4)
    assert((h.minKey, h.minVertex, h.minOrigin) == ((1.0, 3, 4)))
    h.pop()
    assertThrows[NoSuchElementException](h.pop())
  }
}
