package repro.bench

/** Shared harness helpers for the table-reproduction benchmarks. */
object BenchUtil {

  /** Render a paper-style table: header row + aligned columns. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: fmt(header) +: sep +: rows.map(fmt)).mkString("\n")
  }

  /** Retained-bytes model for Table 6: graph footprint + peak live queue
    * entries × measured per-entry cost (route vector + boxing overhead).
    */
  def graphBytes(g: repro.graph.RoadGraph): Long =
    // CSR: adjVertex(4) + adjWeight(8) per directed edge; adjIndex(4) + poiCategory(4) per vertex
    12L * g.numDirectedEdges + 8L * g.numVertices

  def routeEntryBytes(avgRouteLen: Double): Long =
    (64 + 40 * avgRouteLen).toLong // Vector node + boxed ints + entry header

  def mb(bytes: Long): String = f"${bytes / 1048576.0}%.1f MB"
}
