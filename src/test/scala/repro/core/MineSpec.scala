package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerDrain
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.storage.StorageLevel
import repro.{SparkSpec, TestData}
import repro.core.Pattern._
import repro.core.Schema._
import repro.data.Nba
import repro.ml.LocalSample

/** Tests for LCA candidate generation, feature selection, and the MineAPT
  * pipeline (Algorithm 1).
  */
class MineSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val q = Nba.qNba4
  private lazy val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
  private lazy val pt = Query.questionProvenance(nba, q, uq).cache()
  private lazy val ptTuples = Apt.collect(pt, Nil)

  // ---- LCA ----------------------------------------------------------------

  private def sampleOf(rows: Seq[(String, String)]): LocalSample =
    LocalSample(
      Vector(LocalSample.Attr("a", false), LocalSample.Attr("b", false)),
      rows.map { case (x, y) => Array[Any](x, y) }.toVector,
      Vector.fill(rows.size)(0))

  test("LCA keeps agreed constants and stars out disagreements") {
    val pats = Lca.candidates(sampleOf(Seq(("x", "1"), ("x", "2"))), Seq("a", "b"), 3)
    assert(pats.contains(Pattern.of(Pred("a", OpEq, CatV("x")))))
    assert(!pats.exists(_.attrs.contains("b")))
  }
  test("LCA emits full agreements as multi-predicate patterns") {
    val pats = Lca.candidates(sampleOf(Seq(("x", "1"), ("x", "1"))), Seq("a", "b"), 3)
    assert(pats.contains(Pattern.of(Pred("a", OpEq, CatV("x")), Pred("b", OpEq, CatV("1")))))
  }
  test("LCA ranks frequent combinations first") {
    val rows = Seq.fill(8)(("x", "1")) ++ Seq(("y", "2"))
    val pats = Lca.candidates(sampleOf(rows), Seq("a", "b"), 3)
    assert(pats.head == Pattern.of(Pred("a", OpEq, CatV("x")), Pred("b", OpEq, CatV("1"))))
  }
  test("LCA ignores null agreements") {
    val s = LocalSample(
      Vector(LocalSample.Attr("a", false)),
      Vector(Array[Any](null), Array[Any](null)),
      Vector(0, 0))
    assert(Lca.candidates(s, Seq("a"), 3).isEmpty)
  }
  test("LCA truncates wide agreements to the rarest maxPreds constants") {
    val s = LocalSample(
      Vector(LocalSample.Attr("common", false), LocalSample.Attr("rare", false)),
      Vector.fill(9)(Array[Any]("c", null)) :+ Array[Any]("c", "r") :+ Array[Any]("c", "r"),
      Vector.fill(11)(0))
    val pats = Lca.candidates(s, Seq("common", "rare"), 1)
    assert(pats.forall(_.size == 1))
    assert(pats.contains(Pattern.of(Pred("rare", OpEq, CatV("r")))))
  }
  test("LCA on fewer than two rows yields nothing") {
    assert(Lca.candidates(sampleOf(Seq(("x", "1"))), Seq("a", "b"), 3).isEmpty)
  }

  // ---- feature selection --------------------------------------------------

  test("feature selection keeps informative attributes and drops constants") {
    val rows = (0 until 300).map { i =>
      val label = i % 2
      Array[Any](if (label == 0) "A" else "B", "const", Double.box(if (label == 0) 1.0 else 9.0))
    }
    val s = LocalSample(
      Vector(LocalSample.Attr("sig", false), LocalSample.Attr("konst", false), LocalSample.Attr("num", true)),
      rows.toVector, Vector.tabulate(300)(_ % 2))
    val sel = FeatureSelect.filterAttrs(s, Params(selAttrCount = 2))
    // `sig` and `num` are perfectly correlated (both determined by the
    // label), so clustering may keep only one representative of the pair —
    // but the constant column must never survive.
    assert(!sel.categorical.contains("konst"))
    assert(sel.categorical.contains("sig") || sel.numeric.contains("num"))
  }
  test("feature selection disabled keeps everything (Naive mode)") {
    val s = sampleOf(Seq(("x", "1"), ("y", "2")))
    val sel = FeatureSelect.filterAttrs(s, Params(featureSelection = false))
    assert(sel.categorical.toSet == Set("a", "b"))
  }
  test("correlated attributes collapse to one representative") {
    val rows = (0 until 300).map { i =>
      val label = i % 2
      val v = if (label == 0) 1.0 else 9.0
      Array[Any](Double.box(v), Double.box(v * 2), Double.box(scala.util.Random.nextGaussian()))
    }
    val s = LocalSample(
      Vector(LocalSample.Attr("age", true), LocalSample.Attr("age2", true), LocalSample.Attr("noise", true)),
      rows.toVector, Vector.tabulate(300)(_ % 2))
    val sel = FeatureSelect.filterAttrs(s, Params(selAttrCount = 3))
    assert(!(sel.numeric.contains("age") && sel.numeric.contains("age2")))
  }

  // ---- numeric fragments --------------------------------------------------

  test("numeric fragments return λ_#frag−1 interior boundaries") {
    import spark.implicits._
    val df = (1 to 100).map(i => (i.toLong, "t1", i.toDouble)).toDF("pt_id", "grp", "v")
    val frags = Mine.numericFragments(Apt.collect(df, Seq("v")), Seq("v"), nFragments = 4)
    assert(frags("v").size <= 3 && frags("v").nonEmpty)
    assert(frags("v").forall(b => b >= 1 && b <= 100))
  }
  test("fragments of a constant column collapse") {
    import spark.implicits._
    val df = (1 to 50).map(i => (i.toLong, "t1", 7.0)).toDF("pt_id", "grp", "v")
    val frags = Mine.numericFragments(Apt.collect(df, Seq("v")), Seq("v"), 4)
    assert(frags("v") == Seq(7.0))
  }
  test("fragment boundaries are the sorted values at ⌈p·n⌉−1 over rows without nulls") {
    import spark.implicits._
    // v = 10, 9, …, 1 plus two rows with a null: those two rows are dropped
    // for both attributes, so n = 10 and p = 1/4, 2/4, 3/4 give indexes 2, 4, 7.
    val df = ((1 to 10).map(i => (i.toLong, "t1", Option(11.0 - i), Option(i * 100.0))) ++
      Seq((11L, "t2", Option(50.0), None), (12L, "t2", None, Option(0.0))))
      .toDF("pt_id", "grp", "v", "w")
    val frags = Mine.numericFragments(Apt.collect(df, Seq("v", "w")), Seq("v", "w"), nFragments = 4)
    assert(frags("v") == Seq(3.0, 5.0, 8.0))
    assert(frags("w") == Seq(300.0, 500.0, 800.0))
    // n = 3, p = 1/5 … 4/5: indexes 0, 1, 1, 2, merged to three boundaries.
    val small = (1 to 3).map(i => (i.toLong, "t1", i.toDouble)).toDF("pt_id", "grp", "v")
    assert(Mine.numericFragments(Apt.collect(small, Seq("v")), Seq("v"), 5)("v") == Seq(1.0, 2.0, 3.0))
  }

  // ---- λ_F1-samp ----------------------------------------------------------

  test("the local F1 sample keeps exactly the pt_ids Spark's xxhash64 filter keeps") {
    import org.apache.spark.sql.functions.{col, lit, pmod, xxhash64}
    // monotonically_increasing_id puts the partition index above bit 33.
    val ids = spark.range(0, 20000)
      .select((col("id") * 7919L + (col("id") % 5L) * (1L << 33) - 3000L).as("pt_id")).cache()
    val all = ids.collect().map(_.getLong(0))
    for (rate <- Seq(0.3, 0.05); seed <- Seq(42L, 7L)) {
      val kept = ids.filter(pmod(xxhash64(col("pt_id"), lit(seed)), lit(10000)) < lit((rate * 10000).toInt))
        .collect().map(_.getLong(0)).toSet
      assert(kept.nonEmpty && kept.size < all.length)
      assert(all.filter(Mine.inF1Sample(_, rate, seed)).toSet == kept, s"rate $rate seed $seed")
    }
    ids.unpersist()
  }

  // ---- diverse top-k ------------------------------------------------------

  private def qual(f: Double): Metrics.Quality =
    Metrics.Quality("t1", 1, 0, 0, f, f, f, (1, 1), (0, 1))

  test("selectDiverse returns the best F-score first") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("b", OpEq, CatV("2"))), qual(0.5)))
    val out = Mine.selectDiverse(cands, 2)
    assert(out.head._2.fscore == 0.9)
  }
  test("selectDiverse prefers dissimilar runners-up") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("a", OpEq, CatV("1")), Pred("b", OpEq, CatV("2"))), qual(0.85)),
      (Pattern.of(Pred("c", OpEq, CatV("3"))), qual(0.6)))
    val out = Mine.selectDiverse(cands, 2)
    // The near-duplicate (shares a=1) loses to the dissimilar c=3 pattern.
    assert(out.map(_._1.render).contains("c=3"))
  }
  test("selectDiverse caps at k and dedupes pattern+primary") {
    val cands = Seq(
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("a", OpEq, CatV("1"))), qual(0.9)),
      (Pattern.of(Pred("b", OpEq, CatV("2"))), qual(0.5)))
    assert(Mine.selectDiverse(cands, 5).size == 2)
  }

  // ---- MineAPT end-to-end -------------------------------------------------

  private val salaryJg = JoinGraph(
    Vector(JGNode(0, "PT"), JGNode(1, "player_salary"), JGNode(2, "player")),
    Vector(
      JGEdge(0, 1, Some("s"), JoinCond(Seq("season_id" -> "season_id"))),
      JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id")))))

  test("MineAPT returns at most k explanations above the recall threshold") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.size <= 5)
    assert(res.explanations.forall(_.quality.recall >= 0.2))
  }
  test("MineAPT explanations carry exact supports on the full provenance") {
    val (n1, n2) = Metrics.provSizes(pt)
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.forall(e => e.quality.support1._2 == n1 && e.quality.support2._2 == n2))
  }
  test("MineAPT on Ω₀ mines provenance-only patterns") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, JoinGraph.empty, Params(topK = 5, f1SampleRate = 1.0))
    assert(res.explanations.nonEmpty)
    assert(res.explanations.forall(_.pattern.preds.forall(_.attr.startsWith("prov_"))))
  }
  test("MineAPT results are sorted by F-score") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 8, f1SampleRate = 1.0))
    val fs = res.explanations.map(_.fscore)
    assert(fs == fs.sortBy(-(_: Double)))
  }
  test("sampling (λ_F1-samp < 1) still returns plausible top patterns") {
    val full = Mine.mineJoinGraph(nba, q, pt, ptTuples, JoinGraph.empty, Params(topK = 5, f1SampleRate = 1.0))
    val sampled = Mine.mineJoinGraph(nba, q, pt, ptTuples, JoinGraph.empty, Params(topK = 5, f1SampleRate = 0.5))
    assert(sampled.explanations.nonEmpty)
    // Exact re-scoring means reported F-scores are comparable across runs.
    assert(math.abs(full.explanations.head.fscore - sampled.explanations.head.fscore) < 0.35)
  }
  test("numeric refinements appear when they sharpen precision") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg,
      Params(topK = 10, f1SampleRate = 1.0, selAttrCount = 4))
    assert(res.explanations.exists(_.pattern.numericPredCount > 0))
  }
  test("λ_attrNum bounds numeric predicates per pattern") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg,
      Params(topK = 10, f1SampleRate = 1.0, maxNumericPreds = 1))
    assert(res.explanations.forall(_.pattern.numericPredCount <= 1))
  }
  test("aptStats reports the APT shape for Figure 10a") {
    val res = Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 3, f1SampleRate = 1.0))
    assert(res.aptStats.rows > 0 && res.aptStats.attributes > 0)
  }
  test("step timer accumulates the Figure 7 step names") {
    val timer = new Mine.StepTimer
    Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 3), timer)
    assert(timer.seconds("Materialize APTs") > 0)
    assert(timer.seconds("Feature Selection") > 0)
    assert(timer.seconds("Gen. Pat. Cand.") >= 0)
    assert(timer.seconds("F-score Calc.") > 0)
  }

  test("mining a join graph runs one Spark action") {
    assert(ptTuples.size > 0) // the caller's PT collect is not counted
    val actions = new AtomicInteger
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = actions.incrementAndGet()
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = actions.incrementAndGet()
    }
    ListenerDrain(spark.sparkContext)
    spark.listenerManager.register(listener)
    try {
      Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 3))
      ListenerDrain(spark.sparkContext)
      assert(actions.get == 1)
    } finally spark.listenerManager.unregister(listener)
  }

  // Dataset.storageLevel is NONE unless the cache manager holds the plan.
  test("mining leaves the caller's cached PT and cached APT in the cache") {
    Mine.mineJoinGraph(nba, q, pt, ptTuples, JoinGraph.empty, Params(topK = 3))
    assert(pt.storageLevel != StorageLevel.NONE) // Ω₀'s APT is `pt` itself
    val apt = Apt.materialize(nba, q, pt, salaryJg).cache()
    try {
      apt.count()
      Mine.mineJoinGraph(nba, q, pt, ptTuples, salaryJg, Params(topK = 3))
      assert(apt.storageLevel != StorageLevel.NONE)
    } finally apt.unpersist()
  }
}
