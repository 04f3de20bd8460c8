package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PaperExampleSpec

/** Table 4: the worked example's final state (the 12-step trace is asserted
  * in `PaperExampleSpec`; this bench prints the paper-style table).
  */
class Table4Bench extends AnyFunSuite {

  test("Table 4: final S = {<p6,p9,p8> (12.6, 0.5), <p10,p12,p13> (13, 0)}") {
    val (txt, sky) = Tables.table4()
    println(txt)
    val got = sky.map(r => (r.pois, math.round(r.length * 10) / 10.0, r.semScore))
    assert(got == PaperExampleSpec.expectedSkyline.map { case (p, l, s) => (p, l, s) })
  }
}
