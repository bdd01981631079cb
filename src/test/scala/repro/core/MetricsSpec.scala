package repro.core

import org.scalacheck.Gen
import org.scalacheck.Prop.forAll
import org.scalacheck.Test.{check, Parameters}
import repro.{Oracle, SparkSpec}
import repro.core.Pattern._

/** Tests for Definition 7: coverage is per-PT-tuple (not per APT row),
  * TP/FP/FN/precision/recall/F-score, and coverage over a collected APT
  * checked against the DuckDB oracle.
  */
class MetricsSpec extends SparkSpec {
  import spark.implicits._

  // APT: pt_id 1..3 in t1, 10..11 in t2; pt 1 has two APT rows.
  private lazy val apt = Seq(
    (1L, "t1", "a", 1.0),
    (1L, "t1", "b", 9.0), // second context row of the same PT tuple
    (2L, "t1", "a", 5.0),
    (3L, "t1", "c", 2.0),
    (10L, "t2", "a", 8.0),
    (11L, "t2", "b", 3.0),
  ).toDF("pt_id", "grp", "cat", "num").cache()
  private lazy val local = Apt.collect(apt, Seq("cat", "num"))

  private val pA = Pattern.of(Pred("cat", OpEq, CatV("a")))
  private val pB = Pattern.of(Pred("cat", OpEq, CatV("b")))
  private val pLow = Pattern.of(Pred("num", OpLe, NumV(2.0)))

  test("coverage counts distinct PT tuples, not APT rows") {
    val Seq(c) = Metrics.coverage(local, Seq(pA))
    assert(c.cov1 == 2 && c.cov2 == 1) // pt 1,2 in t1; pt 10 in t2
  }
  test("a PT tuple is covered if ANY of its APT rows matches") {
    val Seq(c) = Metrics.coverage(local, Seq(pB))
    assert(c.cov1 == 1 && c.cov2 == 1) // pt 1 via its second row
  }
  test("numeric coverage") {
    val Seq(c) = Metrics.coverage(local, Seq(pLow))
    assert(c.cov1 == 2 && c.cov2 == 0) // pt 1 (num=1), pt 3 (num=2)
  }
  test("batched coverage equals individual coverage") {
    val pats = Seq(pA, pB, pLow)
    val batched = Metrics.coverage(local, pats)
    val single = pats.map(p => Metrics.coverage(local, Seq(p)).head)
    assert(batched == single)
  }
  test("empty pattern list yields empty coverage") {
    assert(Metrics.coverage(local, Nil).isEmpty)
  }

  test("provSizes counts distinct pt_ids per group") {
    val (n1, n2) = Metrics.provSizes(apt)
    assert(n1 == 3 && n2 == 2)
  }

  test("quality for primary t1: tp/fp/fn per Definition 7(b)-(d)") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), n1 = 3, n2 = 2, primary = "t1")
    assert(q.tp == 2 && q.fp == 1 && q.fn == 1)
  }
  test("precision = tp / (tp + fp)") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(math.abs(q.precision - 2.0 / 3) < 1e-9)
  }
  test("recall = tp / |PT(t1)|") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(math.abs(q.recall - 2.0 / 3) < 1e-9)
  }
  test("F-score is the harmonic mean") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    val f = 2 * q.precision * q.recall / (q.precision + q.recall)
    assert(math.abs(q.fscore - f) < 1e-9)
  }
  test("primary t2 swaps the roles of the two tuples") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t2")
    assert(q.tp == 1 && q.fp == 2 && q.fn == 1)
  }
  test("zero coverage yields zero precision/recall/F without NaN") {
    val q = Metrics.quality(Metrics.Coverage(0, 0), 3, 2, "t1")
    assert(q.precision == 0.0 && q.recall == 0.0 && q.fscore == 0.0)
  }
  test("full coverage of primary with zero FP gives F-score 1") {
    val q = Metrics.quality(Metrics.Coverage(3, 0), 3, 2, "t1")
    assert(q.fscore == 1.0)
  }
  test("support fields carry (covered, total) pairs for both tuples") {
    val q = Metrics.quality(Metrics.Coverage(2, 1), 3, 2, "t1")
    assert(q.support1 == (2L, 3L) && q.support2 == (1L, 2L))
  }

  test("recall monotonicity under refinement (Proposition 3.1)") {
    val base = pA
    val refined = pA.refined(Pred("num", OpLe, NumV(1.0)))
    val Seq(cb, cr) = Metrics.coverage(local, Seq(base, refined))
    val (n1, n2) = Metrics.provSizes(apt)
    assert(Metrics.quality(cr, n1, n2, "t1").recall <= Metrics.quality(cb, n1, n2, "t1").recall)
    assert(Metrics.quality(cr, n1, n2, "t2").recall <= Metrics.quality(cb, n1, n2, "t2").recall)
  }

  test("a group entirely absent from APT contributes zero counts") {
    val onlyT1 = apt.filter($"grp" === "t1")
    val Seq(c) = Metrics.coverage(Apt.collect(onlyT1, Seq("cat", "num")), Seq(pA))
    assert(c.cov1 == 2 && c.cov2 == 0)
  }

  test("collecting an APT sorts it by pt_id and encodes nulls") {
    val withNulls = Seq[(Long, String, Option[String], Option[Double])](
      (5L, "t2", None, Some(1.0)), (2L, "t1", Some("a"), None), (5L, "t2", Some("b"), Some(2.0)),
    ).toDF("pt_id", "grp", "cat", "num")
    val t = Apt.collect(withNulls, Seq("cat", "num"))
    assert(t.ptIds.toSeq == Seq(2L, 5L, 5L) && t.labels.toSeq == Seq(0, 1, 1))
    assert(t.rows(0)(0) == "a" && t.rows(0)(1).asInstanceOf[Double].isNaN)
    assert(t.rows.exists(r => r(0) == null))
  }

  // A random APT in random row order: a few PT tuples with one to three rows
  // each, nullable attributes, and sometimes only one of the two groups.
  private val aptGen: Gen[Seq[(Long, String, Option[String], Option[Double])]] = for {
    groups <- Gen.oneOf(Seq("t1", "t2"), Seq("t1"), Seq("t2"))
    nTuples <- Gen.choose(1, 8)
    tuples <- Gen.listOfN(nTuples, for {
      grp <- Gen.oneOf(groups)
      nRows <- Gen.choose(1, 3)
      rows <- Gen.listOfN(nRows, for {
        cat <- Gen.frequency(1 -> Gen.const(None), 3 -> Gen.oneOf("a", "b", "c").map(Some(_)))
        num <- Gen.frequency(1 -> Gen.const(None), 3 -> Gen.choose(0, 5).map(i => Some(i.toDouble)))
      } yield (cat, num))
    } yield (grp, rows))
    order <- Gen.long
  } yield new scala.util.Random(order).shuffle(tuples.zipWithIndex.flatMap { case ((grp, rows), id) =>
    rows.map { case (c, n) => (id * 1000003L, grp, c, n) }
  })

  private val patGen: Gen[Pattern] = for {
    cat <- Gen.option(Gen.oneOf("a", "b", "d").map(v => Pred("cat", OpEq, CatV(v))))
    num <- Gen.option(for {
      op <- Gen.oneOf(OpEq, OpLe, OpGe)
      c <- Gen.choose(0, 5)
    } yield Pred("num", op, NumV(c.toDouble)))
  } yield Pattern.of(cat.toSeq ++ num: _*)

  /** The predicate in DuckDB SQL; the oracle loads every column as VARCHAR. */
  private def sqlOf(p: Pattern): String =
    if (p.isEmpty) "TRUE"
    else p.preds.map {
      case Pred(a, _, CatV(v))  => s"$a = '$v'"
      case Pred(a, op, NumV(d)) => s"CAST($a AS DOUBLE) ${op.sym} $d"
    }.mkString(" AND ")

  test("property: local coverage equals the oracle's COUNT(DISTINCT pt_id) per grp") {
    val prop = forAll(aptGen, Gen.listOfN(5, patGen)) { (rows, pats) =>
      val df = rows.toDF("pt_id", "grp", "cat", "num")
      val cov = Metrics.coverage(Apt.collect(df, Seq("cat", "num")), pats)
      val got = pats.indices.flatMap { k =>
        Seq("t1" -> cov(k).cov1, "t2" -> cov(k).cov2).collect { case (g, n) if n > 0 => (k, g, n) }
      }.toDF("k", "grp", "n")
      val sql = pats.zipWithIndex.map { case (p, k) =>
        s"SELECT $k AS k, grp, COUNT(DISTINCT pt_id) AS n FROM apt WHERE ${sqlOf(p)} GROUP BY grp"
      }.mkString(" UNION ALL ")
      Oracle.assertEquivalent(got, sql, "apt" -> df)
      true
    }
    val r = check(Parameters.default.withMinSuccessfulTests(40), prop)
    assert(r.passed, r.status.toString)
  }
}
