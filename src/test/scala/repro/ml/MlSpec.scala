package repro.ml

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.Apt
import scala.util.Random

/** Tests for the ML substrates: the local random forest used for relevance
  * ranking and the association measures used for attribute clustering.
  */
class MlSpec extends SparkSpec {

  private def mkSample(n: Int, seed: Long = 1)(row: (Random, Int) => (Array[Any], Int)): LocalSample = {
    val rnd = new Random(seed)
    val built = (0 until n).map(i => row(rnd, i))
    LocalSample(
      Vector(LocalSample.Attr("num1", numeric = true), LocalSample.Attr("num2", numeric = true),
             LocalSample.Attr("cat1", numeric = false), LocalSample.Attr("cat2", numeric = false)),
      built.map(_._1).toVector,
      built.map(_._2).toVector)
  }

  /** num1 and cat1 determine the label; num2/cat2 are noise. */
  private lazy val informative = mkSample(400) { (rnd, i) =>
    val label = i % 2
    val num1 = if (label == 0) 10 + rnd.nextGaussian() else 20 + rnd.nextGaussian()
    val cat1 = if (label == 0) "lo" else "hi"
    (Array[Any](Double.box(num1), Double.box(rnd.nextGaussian()), cat1,
      if (rnd.nextBoolean()) "x" else "y"), label)
  }

  test("random forest ranks informative attributes above noise") {
    val imp = RandomForest.featureImportance(informative)
    assert(imp("num1") + imp("cat1") > imp("num2") + imp("cat2"))
    assert(imp("num1") > imp("num2"))
  }
  test("importance is normalized to sum 1") {
    val imp = RandomForest.featureImportance(informative)
    assert(math.abs(imp.values.sum - 1.0) < 1e-6)
  }
  test("constant labels yield zero importance everywhere") {
    val s = informative.copy(labels = Vector.fill(informative.size)(0))
    val imp = RandomForest.featureImportance(s)
    assert(imp.values.forall(_ == 0.0))
  }
  test("empty sample is handled") {
    val s = informative.copy(rows = Vector.empty, labels = Vector.empty)
    assert(RandomForest.featureImportance(s).values.forall(_ == 0.0))
  }
  test("forest is deterministic in the seed") {
    val a = RandomForest.featureImportance(informative, RandomForest.Config(seed = 9))
    val b = RandomForest.featureImportance(informative, RandomForest.Config(seed = 9))
    assert(a == b)
  }

  // ---- association measures ----------------------------------------------

  test("pearson of a perfect linear relation is ±1") {
    val xs = Vector.tabulate(50)(_.toDouble)
    assert(math.abs(Correlation.pearson(xs, xs.map(2 * _ + 3)) - 1.0) < 1e-9)
    assert(math.abs(Correlation.pearson(xs, xs.map(-1 * _)) + 1.0) < 1e-9)
  }
  test("pearson of independent noise is near 0") {
    val rnd = new Random(3)
    val xs = Vector.fill(500)(rnd.nextGaussian())
    val ys = Vector.fill(500)(rnd.nextGaussian())
    assert(math.abs(Correlation.pearson(xs, ys)) < 0.15)
  }
  test("pearson ignores NaN pairs") {
    val xs = Vector(1.0, 2.0, Double.NaN, 4.0, 5.0)
    val ys = Vector(2.0, 4.0, 6.0, 8.0, 10.0)
    assert(math.abs(Correlation.pearson(xs, ys) - 1.0) < 1e-9)
  }
  test("cramersV of identical columns is 1") {
    val xs = Vector.tabulate(60)(i => s"c${i % 3}")
    assert(Correlation.cramersV(xs, xs) > 0.99)
  }
  test("cramersV of independent columns is near 0") {
    val rnd = new Random(5)
    val xs = Vector.fill(600)(s"a${rnd.nextInt(3)}")
    val ys = Vector.fill(600)(s"b${rnd.nextInt(3)}")
    assert(Correlation.cramersV(xs, ys) < 0.15)
  }
  test("correlationRatio detects category-determined numerics") {
    val cats = Vector.tabulate(100)(i => s"g${i % 4}")
    val nums = cats.map(c => c.drop(1).toDouble * 10)
    assert(Correlation.correlationRatio(cats, nums) > 0.99)
  }
  test("correlationRatio of unrelated pairs is small") {
    val rnd = new Random(7)
    val cats = Vector.fill(500)(s"g${rnd.nextInt(4)}")
    val nums = Vector.fill(500)(rnd.nextGaussian())
    assert(Correlation.correlationRatio(cats, nums) < 0.2)
  }

  test("clustering groups the birth-date/age style duplicates") {
    val rnd = new Random(11)
    val base = Vector.fill(300)(rnd.nextGaussian() * 10 + 40)
    val rows = base.map(v => Array[Any](Double.box(v), Double.box(100 - v), Double.box(rnd.nextGaussian())))
    val s = LocalSample(
      Vector(LocalSample.Attr("age", true), LocalSample.Attr("birth", true), LocalSample.Attr("noise", true)),
      rows, Vector.fill(300)(0))
    val clusters = Correlation.cluster(s, Seq(0, 1, 2), 0.9)
    assert(clusters.size == 2)
    assert(clusters.exists(c => c.toSet == Set(0, 1)))
  }
  test("clustering with a high threshold keeps attributes apart") {
    val clusters = Correlation.cluster(informative, Seq(0, 1, 2, 3), 0.999)
    assert(clusters.size == 4)
  }

  // ---- LocalSample.draw over a collected APT -------------------------------

  private def sampleOf(df: DataFrame, cols: Seq[String], fraction: Double, cap: Int,
                       seed: Long = 7): LocalSample =
    LocalSample.draw(Apt.collect(df, cols), fraction, cap, seed)

  test("collect caps rows and carries types") {
    import spark.implicits._
    val df = (1 to 500).map(i => (i.toLong, "t" + (i % 2 + 1), i.toDouble, s"c${i % 5}"))
      .toDF("pt_id", "grp", "num", "cat")
    val s = sampleOf(df, Seq("num", "cat"), 1.0, 100)
    assert(s.size <= 100)
    assert(s.attrs == Vector(LocalSample.Attr("num", true), LocalSample.Attr("cat", false)))
    assert(s.labels.toSet == Set(0, 1))
  }
  test("collect stratifies across both question groups") {
    import spark.implicits._
    val df = ((1 to 300).map(i => (i.toLong, "t1", i.toDouble)) ++ (1 to 10).map(i => (1000L + i, "t2", i.toDouble)))
      .toDF("pt_id", "grp", "num")
    val s = sampleOf(df, Seq("num"), 1.0, 100)
    assert(s.labels.count(_ == 1) == 10) // the whole minority group
    assert(s.labels.count(_ == 0) == 50)
  }
  test("a fractional sample is fixed by its seed") {
    import spark.implicits._
    val df = (1 to 400).map(i => (i.toLong, "t" + (i % 2 + 1), i.toDouble)).toDF("pt_id", "grp", "num")
    def nums(seed: Long) = sampleOf(df, Seq("num"), 0.5, 1000, seed).numericValues(0)
    val a = nums(3)
    assert(a.size > 150 && a.size < 250) // about half of the 400 rows
    assert(nums(3) == a)
    assert(nums(4) != a)
  }
  test("the sample falls back to the whole group below min(cap/2, 30) rows") {
    import spark.implicits._
    // t1: 1000 rows, a 10% sample (~100 rows) is kept as drawn; t2: 50
    // rows, whose ~5 sampled rows are below 30, so all 50 are taken.
    val df = ((1 to 1000).map(i => (i.toLong, "t1", i.toDouble)) ++ (1 to 50).map(i => (5000L + i, "t2", i.toDouble)))
      .toDF("pt_id", "grp", "num")
    val s = sampleOf(df, Seq("num"), 0.1, 1000)
    val n1 = s.labels.count(_ == 0)
    assert(n1 >= 30 && n1 < 200)
    assert(s.labels.count(_ == 1) == 50)
    // Cap 20 allows 10 rows per group: a fraction of 0 samples no row, and
    // the fallback takes 10 rows of each whole group.
    val capped = sampleOf(df, Seq("num"), 0.0, 20)
    assert(capped.labels.count(_ == 0) == 10 && capped.labels.count(_ == 1) == 10)
  }
  test("collected tables and samples do not depend on how Spark partitions the rows") {
    import spark.implicits._
    val rnd = new Random(17)
    val df = (1 to 600).map { i =>
      (rnd.nextInt(40).toLong, "t" + (rnd.nextInt(2) + 1),
        if (rnd.nextInt(6) == 0) None else Some(s"c${rnd.nextInt(3)}"),
        if (rnd.nextInt(6) == 0) None else Some(rnd.nextInt(4).toDouble))
    }.toDF("pt_id", "grp", "cat", "num")
    def shape(t: Apt.Local) =
      (t.ptIds.toSeq, t.labels.toSeq, t.rows.toSeq.map(_.map(String.valueOf).toSeq))
    val cols = Seq("cat", "num")
    val a = Apt.collect(df, cols)
    val b = Apt.collect(df.repartition(7), cols)
    assert(shape(a) == shape(b))
    def rows(s: LocalSample) = (s.rows.map(_.map(String.valueOf).toSeq), s.labels)
    assert(rows(sampleOf(df, cols, 0.2, 100)) == rows(sampleOf(df.repartition(7), cols, 0.2, 100)))
  }
}
