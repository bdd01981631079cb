package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.{Apt, Cajade, Metrics, Mine, Query}
import repro.core.Pattern._
import repro.core.Schema.Database

import scala.collection.mutable

/** Correctness gate for explain results, independent of `Metrics.coverage`.
  *
  * Each reported explanation is re-scored from scratch: its APT is
  * materialized, the `pt_id`, `grp` and pattern columns are collected, the
  * predicates are evaluated in plain Scala, and distinct `pt_id`s are
  * counted per question group. Supports, precision, recall and F-score must
  * match the reported ones exactly.
  */
object Gate {

  /** One collected APT row: provenance tuple id, group and pattern values. */
  final case class Row(ptId: Long, grp: String, values: Map[String, Any])

  def matches(p: Pred, v: Any): Boolean = (v, p.op, p.value) match {
    case (null, _, _)              => false
    case (x, OpEq, CatV(s))        => x.toString == s
    case (x: Number, OpEq, NumV(d)) => x.doubleValue == d
    case (x: Number, OpLe, NumV(d)) => x.doubleValue <= d
    case (x: Number, OpGe, NumV(d)) => x.doubleValue >= d
    case _                         => throw new IllegalStateException(s"cannot evaluate ${p.render} on $v")
  }

  def matches(pattern: Pattern, row: Row): Boolean =
    pattern.preds.forall(p => matches(p, row.values.getOrElse(p.attr, null)))

  /** The quality of `pattern` with `primary` recomputed from collected rows;
    * `n1`/`n2` are the distinct provenance tuples of each question group.
    */
  def rescore(pattern: Pattern, primary: String, rows: Seq[Row], n1: Long, n2: Long): Metrics.Quality = {
    val covered = rows.filter(matches(pattern, _)).groupBy(_.grp).map { case (g, rs) => g -> rs.map(_.ptId).distinct.size.toLong }
    val (c1, c2) = (covered.getOrElse("t1", 0L), covered.getOrElse("t2", 0L))
    val (tp, fp, n) = if (primary == "t1") (c1, c2, n1) else (c2, c1, n2)
    val precision = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val recall = if (n == 0) 0.0 else tp.toDouble / n
    val f = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
    Metrics.Quality(primary, tp, fp, n - tp, precision, recall, f, (c1, n1), (c2, n2))
  }

  /** Differences between a reported and a recomputed quality, empty if equal. */
  def mismatches(reported: Metrics.Quality, expected: Metrics.Quality): Seq[String] = {
    val fields = Seq(
      "support1" -> (reported.support1, expected.support1),
      "support2" -> (reported.support2, expected.support2),
      "tp" -> (reported.tp, expected.tp),
      "fp" -> (reported.fp, expected.fp),
      "fn" -> (reported.fn, expected.fn),
      "precision" -> (reported.precision, expected.precision),
      "recall" -> (reported.recall, expected.recall),
      "fscore" -> (reported.fscore, expected.fscore))
    fields.collect { case (name, (r, e)) if r != e => s"$name reported $r, recomputed $e" }
  }

  /** Ranking key of a result: what two calls must agree on. */
  def rankingKey(es: Seq[Mine.Explanation]): Seq[String] =
    es.map(e => s"${e.jg.canonical} | ${e.pattern.render} [${e.quality.primary}] ${e.quality}")
}

/** Verifies the `top` explanations of every result of one workload run.
  * Verified (graph, pattern, quality) triples are remembered, so a call that
  * repeats an already verified explanation costs no Spark work.
  */
final class Gate(db: Database, q: Query.QuerySpec, uq: Query.UserQuestion, top: Int) {
  // Nothing is cached here: a cached provenance table would be picked up by
  // the next explain call and change what it measures.
  private lazy val pt: DataFrame = Query.questionProvenance(db, q, uq)
  private lazy val sizes: (Long, Long) = {
    val grps = pt.select("grp").collect().map(_.getString(0))
    (grps.count(_ == "t1").toLong, grps.count(_ == "t2").toLong)
  }
  private val verified = mutable.Map.empty[(String, Pattern, Metrics.Quality), Seq[String]]
  private var reference: Option[Seq[String]] = None

  /** Problems with one result; empty when it passes. */
  def check(res: Cajade.Result): Seq[String] = {
    val topEs = res.topExplanations(top)
    val key = Gate.rankingKey(topEs)
    val ranking =
      if (topEs.isEmpty) Seq("no explanations returned")
      else reference match {
        case None => reference = Some(key); Nil
        case Some(ref) if ref == key => Nil
        case Some(ref) => Seq(s"ranking differs from the first call: ${key.mkString("; ")} vs ${ref.mkString("; ")}")
      }
    ranking ++ topEs.flatMap { e =>
      verified.getOrElseUpdate((e.jg.canonical, e.pattern, e.quality), verify(e))
        .map(m => s"${e.pattern.render} [${e.quality.primary}] on ${e.jg.describe}: $m")
    }
  }

  private def verify(e: Mine.Explanation): Seq[String] = {
    val (n1, n2) = sizes
    val attrs = e.pattern.preds.map(_.attr)
    val apt = Apt.materialize(db, q, pt, e.jg)
    val rows = apt.select((Seq("pt_id", "grp") ++ attrs).map(col): _*).collect().toSeq.map { r =>
      Gate.Row(r.getLong(0), r.getString(1), attrs.zipWithIndex.map { case (a, i) => a -> r.get(i + 2) }.toMap)
    }
    Gate.mismatches(e.quality, Gate.rescore(e.pattern, e.quality.primary, rows, n1, n2))
  }
}
