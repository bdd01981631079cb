package perfbench

/** The benchmark's metrics and its one-line JSON result. */
object Report {

  final case class Metric(name: String, unit: String)

  /** Reported with tracing off. */
  val endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", "s"),
    Metric("explain_s", "s"),
    Metric("top3_fscore", "ratio"),
  )

  /** Reported by the traced run, per warm explain call. */
  val perLayer: Seq[Metric] = Seq(
    // Metrics
    Metric("fscore.s", "s"),
    Metric("coverage.jobs", "count"),
    Metric("coverage.busy_s", "s"),
    Metric("coverage.s_per_job", "s"),
    Metric("provsizes.jobs", "count"),
    // Mine / Apt
    Metric("apt.s", "s"),
    Metric("apt.rows", "count"),
    Metric("apt.empty_graphs", "count"),
    Metric("mine.jobs", "count"),
    Metric("f1_sampling.s", "s"),
    Metric("refine.s", "s"),
    Metric("fragments.jobs", "count"),
    Metric("mine.residual_s", "s"),
    // LocalSample / FeatureSelect / Lca
    Metric("feature_selection.s", "s"),
    Metric("sample.jobs", "count"),
    Metric("candidates.s", "s"),
    // Enumerate
    Metric("enumerate.s", "s"),
    Metric("enumerate.jobs", "count"),
    Metric("enumerate.graphs", "count"),
    // Query
    Metric("query.jobs", "count"),
    Metric("query.busy_s", "s"),
    Metric("query.pt_rows", "count"),
    // Spark / JVM
    Metric("spark.jobs", "count"),
    Metric("spark.stages", "count"),
    Metric("spark.tasks", "count"),
    Metric("spark.busy_s", "s"),
    Metric("spark.s_per_job", "s"),
    Metric("driver.s", "s"),
    Metric("jvm.gc_s", "s"),
    Metric("jvm.heap_used_mb", "MB"),
    Metric("unattributed.jobs", "count"),
    // The benchmark itself
    Metric("trace.explain_s", "s"),
    Metric("trace.overhead_s", "s"),
    Metric("first_explain.s", "s"),
    Metric("first_explain.jobs", "count"),
  )

  def metricsFor(trace: Boolean): Seq[Metric] = if (trace) perLayer else endToEnd

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalArgumentException(s"not a finite number: $v")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  def quote(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  /** The result line. Every metric of the mode must have a value. */
  def json(correct: Boolean, attempted: Int, failed: Int, trace: Boolean, values: Map[String, Double]): String = {
    val defs = metricsFor(trace)
    val missing = defs.map(_.name).filterNot(values.contains)
    require(missing.isEmpty, s"no value for ${missing.mkString(", ")}")
    val ms = defs.map(m => s"${quote(m.name)}: {\"value\": ${num(values(m.name))}, \"unit\": ${quote(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  /** Human-readable lines printed before the result line. */
  def table(trace: Boolean, values: Map[String, Double]): Seq[String] =
    metricsFor(trace).map(m => f"  ${m.name}%-22s ${values(m.name)}%14.6f ${m.unit}")
}
