package skybench

/** `skybench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  *
  * Prints notes as `# ` lines, then one JSON result line. Exits 2 on bad
  * arguments and 1 if the run itself fails; neither prints a result.
  */
object Main {

  private def usage(msg: String): Nothing = {
    System.err.println(s"skybench: $msg")
    System.err.println("usage: --workload <" + Workloads.Names.mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def parse(argv: Array[String]): Args = {
    if (argv.length % 2 != 0) usage("arguments come in pairs")
    val kv = argv.grouped(2).map(p => p(0) -> p(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    kv.keys.find(!known(_)).foreach(k => usage(s"unknown argument $k"))
    def need(k: String): String = kv.getOrElse(k, usage(s"missing $k"))
    val w = need("--workload")
    if (!Workloads.Names.contains(w)) usage(s"unknown workload $w")
    val seed = need("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val secs = need("--seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val trace = need("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, not $t")
    }
    Args(w, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val workDir = sys.props.getOrElse("skybench.work", "skybench-work")
    val rep =
      try new Bench(a, workDir).run()
      catch {
        case e: Throwable =>
          System.err.println(s"skybench: run failed: $e")
          e.printStackTrace()
          sys.exit(1)
      }
    rep.notes.foreach(n => println(s"# $n"))
    println(rep.json(a.trace))
    System.out.flush()
    sys.exit(0)
  }
}
