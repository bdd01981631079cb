package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Quality metrics of explanation patterns (paper Definition 7).
  *
  * A PT tuple t' of output t is *covered* by (Ω, Φ) if at least one APT row
  * derived from t' matches Φ. Coverage is therefore counted per distinct
  * `pt_id`, never per APT row. It is computed on the driver over an APT
  * collected once per join graph ([[Apt.collect]]) and projected to the
  * attributes feature selection kept: a few columns of at most some
  * thousands of rows, so a row scan per pattern is cheaper than any Spark
  * job.
  */
object Metrics {

  /** Coverage of one pattern: distinct PT tuples covered in the provenance
    * of t1 and of t2.
    */
  final case class Coverage(cov1: Long, cov2: Long)

  /** Full quality metrics for a pattern with a chosen primary tuple. */
  final case class Quality(
      primary: String, // "t1" or "t2"
      tp: Long, fp: Long, fn: Long,
      precision: Double, recall: Double, fscore: Double,
      support1: (Long, Long), // (covered, total) for t1
      support2: (Long, Long), // (covered, total) for t2
  )

  /** Counts |PT(Q,D,t1)| and |PT(Q,D,t2)| as distinct pt_ids by grp. */
  def provSizes(pt: DataFrame): (Long, Long) = {
    val rows = pt.groupBy("grp").agg(countDistinct("pt_id").as("n")).collect()
    val m = rows.map(r => r.getString(0) -> r.getLong(1)).toMap
    (m.getOrElse("t1", 0L), m.getOrElse("t2", 0L))
  }

  /** Coverage of each pattern over a collected APT, aligned with
    * `patterns`: a PT tuple counts once, in its question group, if any of
    * its rows matches. Each pattern is one scan over the rows, in which a
    * PT tuple's rows are contiguous.
    */
  def coverage(apt: Apt.Local, patterns: Seq[Pattern.Pattern]): Seq[Coverage] = patterns.map { p =>
    val cols = p.columnsIn(apt.names)
    val counts = Array(0L, 0L)
    var i = 0
    while (i < apt.size) {
      var j = i
      var hit = false
      while (j < apt.size && apt.ptIds(j) == apt.ptIds(i) && apt.labels(j) == apt.labels(i)) {
        hit = hit || p.matches(apt.rows(j), cols)
        j += 1
      }
      if (hit) counts(apt.labels(i)) += 1
      i = j
    }
    Coverage(counts(0), counts(1))
  }

  /** Derives precision/recall/F-score (Definition 7(e)) from coverage given
    * the provenance sizes and the chosen primary tuple.
    */
  def quality(cov: Coverage, n1: Long, n2: Long, primary: String): Quality = {
    val (tp, fp, nPrim) =
      if (primary == "t1") (cov.cov1, cov.cov2, n1) else (cov.cov2, cov.cov1, n2)
    val fn = nPrim - tp
    val prec = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val rec = if (nPrim == 0) 0.0 else tp.toDouble / nPrim
    val f1 = if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)
    Quality(primary, tp, fp, fn, prec, rec, f1, (cov.cov1, n1), (cov.cov2, n2))
  }
}
