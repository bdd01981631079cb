package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.ml.LocalSample

/** Augmented provenance tables (paper Section 2.3, Definition 4).
  *
  * Given a provenance table (with `pt_id`/`grp` bookkeeping columns) and a
  * join graph Ω, the APT is the equi-join of PT with one renamed copy of
  * each context node's relation, using the join conditions on Ω's edges.
  * Context node `i`'s columns are prefixed `a<i>_` — the aliasing required
  * by Definition 3 when a relation occurs several times.
  */
object Apt {

  /** Column prefix of context node `id`. */
  def ctxPrefix(id: Int): String = s"a${id}_"

  /** Materializes APT(Q, D, Ω) for the rows of `pt` (PT already restricted
    * to the user question, with `pt_id` and `grp`).
    *
    * Edges are applied in an order that keeps the intermediate result
    * connected (each edge touches at least one already-joined node); an
    * edge whose `toNode` is already present becomes a post-join filter —
    * that is how parallel edges between existing nodes are handled.
    */
  def materialize(db: Schema.Database, q: Query.QuerySpec, pt: DataFrame, jg: Schema.JoinGraph): DataFrame = {
    var joinedNodes = Set(0)
    var df = pt
    var pending = jg.edges
    while (pending.nonEmpty) {
      val idx = pending.indexWhere(e => joinedNodes(e.fromNode) || joinedNodes(e.toNode))
      require(idx >= 0, s"join graph not connected: ${jg.describe}")
      val e = pending(idx)
      pending = pending.patch(idx, Nil, 1)
      val cond = edgeCondition(q, e)
      if (joinedNodes(e.fromNode) && joinedNodes(e.toNode)) {
        df = df.filter(cond)
      } else {
        // Exactly one endpoint is new; by construction of ExtendJG the new
        // endpoint is always `toNode` (PT is never new).
        val newNode = if (joinedNodes(e.fromNode)) e.toNode else e.fromNode
        val rel = jg.relOf(newNode)
        val raw = db(rel)
        val renamed = raw.columns.foldLeft(raw)((d, c) => d.withColumnRenamed(c, ctxPrefix(newNode) + c))
        df = df.join(renamed, cond, "inner")
        joinedNodes += newNode
      }
    }
    df
  }

  /** An APT (or a PT) projected to some attributes and collected to the
    * driver. Its row order does not depend on Spark's partitioning: by
    * (pt_id, grp), so the rows of one PT tuple are contiguous, then by the
    * values. Row i derives from PT tuple `ptIds(i)` of question tuple
    * `labels(i)` (0 = t1, 1 = t2); its values, one per attribute of `attrs`,
    * use [[LocalSample]]'s encoding.
    */
  final class Local(val attrs: Vector[LocalSample.Attr], val ptIds: Array[Long], val labels: Array[Int],
                    val rows: Array[Array[Any]]) {
    val names: Vector[String] = attrs.map(_.name)
    def size: Int = rows.length

    /** The rows of the PT tuples whose pt_id satisfies `keep`. */
    def filter(keep: Long => Boolean): Local = {
      val idx = ptIds.indices.filter(i => keep(ptIds(i))).toArray
      new Local(attrs, idx.map(ptIds), idx.map(labels), idx.map(rows))
    }

    /** Every row, restricted to the attributes `cols`. */
    def project(cols: Seq[String]): Local = {
      val idx = cols.map(names.indexOf).toArray
      new Local(idx.map(attrs).toVector, ptIds, labels, rows.map(r => idx.map(r)))
    }
  }

  /** Collects `pt_id`, `grp` and the columns `cols` of the question rows
    * (grp ∈ {t1, t2}) of `apt` in one Spark job.
    */
  def collect(apt: DataFrame, cols: Seq[String]): Local = {
    val attrs = LocalSample.attrsOf(apt, cols)
    val rows = apt.filter(col("grp").isin("t1", "t2"))
      .select((cols :+ "pt_id" :+ "grp").map(col): _*).collect()
      .map { r =>
        (r.getLong(cols.size), if (r.getString(cols.size + 1) == "t1") 0 else 1, LocalSample.encode(r, attrs))
      }
      .sortBy(r => (r._1, r._2, r._3.toSeq))(rowOrder)
    new Local(attrs, rows.map(_._1), rows.map(_._2), rows.map(_._3))
  }

  /** Values compare with null and NaN first, then in their natural order. */
  private val rowOrder: Ordering[(Long, Int, Seq[Any])] = {
    val value = Ordering.by[Any, (Boolean, Double, String)] {
      case d: java.lang.Double if !d.isNaN => (true, d.doubleValue, "")
      case s: String => (true, 0.0, s)
      case _ => (false, 0.0, "")
    }(Ordering.Tuple3(Ordering.Boolean, Ordering.Double.TotalOrdering, Ordering.String))
    Ordering.Tuple3(Ordering.Long, Ordering.Int, Ordering.Implicits.seqOrdering[Seq, Any](value))
  }

  /** The Spark join condition for one join-graph edge. */
  def edgeCondition(q: Query.QuerySpec, e: Schema.JGEdge): Column =
    e.cond.pairs.map { case (fa, ta) =>
      col(colName(q, e.fromNode, e.queryAlias, fa)) === col(colName(q, e.toNode, None, ta))
    }.reduce(_ && _)

  /** Resolves an attribute of a join-graph node to its APT column name. */
  def colName(q: Query.QuerySpec, node: Int, queryAlias: Option[String], attr: String): String =
    if (node == 0) q.provCol(queryAlias.getOrElse(q.aliases.head), attr)
    else ctxPrefix(node) + attr

  /** The mineable attribute columns of an APT: everything except
    * bookkeeping columns, the query's group-by attributes — *in every
    * aliased copy*, since a context join can re-expose the grouping
    * attribute (e.g. season_name via a season context node) and such
    * predicates merely restate the user question (Section 2.4) — and
    * surrogate-key columns (`*_id`), whose constants identify rows rather
    * than summarize them (the paper's explanations only ever use
    * human-readable attributes).
    */
  def patternColumns(apt: DataFrame, q: Query.QuerySpec): Seq[String] = {
    val banned = Set("pt_id", "grp") ++ q.groupCols
    val bannedBase: Set[String] = q.groupBy.map(_._2).toSet
    apt.columns.filterNot { c =>
      banned(c) || c.endsWith("_id") || bannedBase(baseName(q, c))
    }.toSeq
  }

  /** Strips the `prov_<alias>_` / `a<i>_` prefix off an APT column. */
  def baseName(q: Query.QuerySpec, col: String): String = {
    val provPrefix = q.aliases.map(al => s"prov_${al}_").find(col.startsWith)
    provPrefix.map(col.stripPrefix) getOrElse {
      if (col.matches("a\\d+_.*")) col.replaceFirst("a\\d+_", "") else col
    }
  }
}
