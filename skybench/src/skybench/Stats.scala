package skybench

/** Order statistics for latency samples. */
object Stats {

  /** Percentile ladder searched by [[tail]], lowest first. */
  val Ladder: Vector[Double] = Vector(50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  def geoMean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0.0), s"geometric mean of $xs")
    if (xs.length == 1) xs.head else math.exp(xs.map(math.log).sum / xs.length)
  }

  /** 1-based nearest rank of percentile `p` among `n` samples. */
  def rank(p: Double, n: Int): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Samples ranked strictly above percentile `p`'s rank. */
  def beyond(p: Double, n: Int): Int = n - rank(p, n)

  /** The tail rule: the highest ladder percentile that has at least ten
    * samples beyond it, as (percentile, value). None when fewer than
    * eleven samples exist, because then no percentile qualifies.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] = {
    val s = xs.sorted.toIndexedSeq
    Ladder.reverse.find(p => beyond(p, s.length) >= 10)
      .map(p => (p, s(rank(p, s.length) - 1)))
  }

  /** Longest-processing-time-first makespan of `jobs` on `workers`: the
    * ideal a scheduler could reach with perfect knowledge of job costs.
    */
  def lptMakespan(jobs: Seq[Double], workers: Int): Double = {
    val load = new Array[Double](math.max(1, workers))
    jobs.sorted(Ordering[Double].reverse).foreach { j =>
      val i = load.indices.minBy(load(_))
      load(i) += j
    }
    load.max
  }
}
