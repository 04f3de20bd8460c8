package repro.jobs

import java.io.ByteArrayOutputStream

import org.scalatest.funsuite.AnyFunSuite

/** `TablesJob`'s arguments come from the command line. */
class TablesJobSpec extends AnyFunSuite {

  private def output(args: String*): String = {
    val buf = new ByteArrayOutputStream
    Console.withOut(buf)(TablesJob.main(args.toArray))
    buf.toString("UTF-8")
  }

  test("TablesJob 4 prints Table 4's final state") {
    val out = output("4")
    assert(out.contains("== Table 4 (final state): BSSR on the Fig. 1 example =="), out)
    assert(out.contains("<p6,p9,p8>") && out.contains("<p10,p12,p13>"), out)
    assert(!out.contains("Table 5"), out)
  }

  test("TablesJob rejects an unknown table name, naming it, before printing any table") {
    val buf = new ByteArrayOutputStream
    val e = intercept[IllegalArgumentException] {
      Console.withOut(buf)(TablesJob.main(Array("4", "table6")))
    }
    assert(e.getMessage.contains("'table6'"), e.getMessage)
    assert(buf.size == 0, buf.toString("UTF-8"))
  }
}
