package repro.ml

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.NumericType
import repro.core.Apt

/** A small, driver-local sample of an APT, used by the sample-based steps
  * of the mining pipeline (feature relevance, attribute clustering, LCA
  * candidate generation). It is drawn on the driver from the APT collected
  * by [[Apt.collect]] ([[LocalSample.draw]]). Numeric attributes are stored
  * as Double (NaN for null), categoricals as String (null preserved).
  */
final case class LocalSample(
    attrs: Vector[LocalSample.Attr],
    rows: Vector[Array[Any]],
    labels: Vector[Int], // 0 = provenance of t1, 1 = provenance of t2
) {
  def attrIndex(name: String): Int = attrs.indexWhere(_.name == name)
  def size: Int = rows.size

  def numericValues(i: Int): Vector[Double] =
    rows.map(r => r(i) match { case d: java.lang.Double => d.doubleValue; case _ => Double.NaN })
  def categoricalValues(i: Int): Vector[String] =
    rows.map(r => r(i) match { case s: String => s; case null => null; case x => x.toString })
}

object LocalSample {
  final case class Attr(name: String, numeric: Boolean)

  /** The λ_pat-samp sample of a collected APT. Every row draws a uniform
    * key from `seed`, in table order. Per question tuple, the sample is the
    * rows whose key is below `fraction`, at most cap/2 of them (smallest
    * keys first). A group yielding fewer than min(cap/2, 30) rows would
    * starve feature selection and LCA; it yields its cap/2 smallest-key
    * rows instead. Rows of t1 come first, each group in table order.
    */
  def draw(table: Apt.Local, fraction: Double, cap: Int, seed: Long): LocalSample = {
    val rnd = new scala.util.Random(seed)
    val keys = Array.fill(table.size)(rnd.nextDouble())
    val perGrp = math.max(1, cap / 2)
    def smallest(rows: Seq[Int]): Seq[Int] = rows.sortBy(keys(_)).take(perGrp).sorted
    val idx = Seq(0, 1).flatMap { label =>
      val group = table.labels.indices.filter(table.labels(_) == label)
      val sampled = smallest(group.filter(keys(_) < fraction))
      if (sampled.size >= math.min(perGrp, 30)) sampled else smallest(group)
    }
    LocalSample(table.attrs, idx.map(table.rows).toVector, idx.map(table.labels).toVector)
  }

  /** The attributes `cols` of `df`; an attribute is numeric iff its Spark
    * type is.
    */
  def attrsOf(df: DataFrame, cols: Seq[String]): Vector[Attr] = {
    val fields = df.schema.fields.map(f => f.name -> f).toMap
    cols.toVector.map(c => Attr(c, fields(c).dataType.isInstanceOf[NumericType]))
  }

  /** The first `attrs.size` fields of `r` in the driver encoding. */
  def encode(r: Row, attrs: Vector[Attr]): Array[Any] = {
    val arr = new Array[Any](attrs.size)
    var i = 0
    while (i < attrs.size) {
      val v = r.get(i)
      arr(i) =
        if (v == null) { if (attrs(i).numeric) Double.box(Double.NaN) else null }
        else if (attrs(i).numeric) Double.box(v.asInstanceOf[Number].doubleValue)
        else v.toString
      i += 1
    }
    arr
  }
}
