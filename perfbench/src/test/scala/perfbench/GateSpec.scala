package perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Cajade, Params}
import repro.core.Pattern._
import repro.data.Nba

class GateSpec extends AnyFunSuite {

  private val rows = Seq(
    Gate.Row(1, "t1", Map("pts" -> 30, "team" -> "GSW")),
    Gate.Row(1, "t1", Map("pts" -> 10, "team" -> "GSW")),
    Gate.Row(2, "t1", Map("pts" -> 25, "team" -> "CLE")),
    Gate.Row(3, "t1", Map("pts" -> null, "team" -> "GSW")),
    Gate.Row(4, "t2", Map("pts" -> 22, "team" -> "GSW")),
    Gate.Row(5, "t2", Map("pts" -> 5, "team" -> null)),
  )
  private val pattern = Pattern.of(Pred("pts", OpGe, NumV(20)), Pred("team", OpEq, CatV("GSW")))

  test("rescoring counts distinct provenance tuples, and nulls never match") {
    val q = Gate.rescore(pattern, "t1", rows, n1 = 3, n2 = 2)
    assert(q.support1 == ((1L, 3L)) && q.support2 == ((1L, 2L)))
    assert(q.tp == 1 && q.fp == 1 && q.fn == 2)
    assert(q.precision == 0.5 && q.recall == 1.0 / 3)
    val wide = Gate.rescore(Pattern.of(Pred("pts", OpLe, NumV(30))), "t2", rows, 3, 2)
    assert(wide.support1 == ((2L, 3L)) && wide.support2 == ((2L, 2L)))
    assert(wide.recall == 1.0)
  }

  test("a tampered quality is rejected field by field") {
    val honest = Gate.rescore(pattern, "t1", rows, 3, 2)
    assert(Gate.mismatches(honest, honest).isEmpty)
    val tampered = Seq(
      honest.copy(support1 = (2L, 3L)),
      honest.copy(support2 = (0L, 2L)),
      honest.copy(fscore = honest.fscore + 1e-9),
      honest.copy(precision = 0.6),
      honest.copy(recall = 0.5),
    )
    tampered.foreach(t => assert(Gate.mismatches(t, honest).nonEmpty, t))
  }

  test("on a real explain result the gate passes it and rejects a tampered copy") {
    val spark = SparkSession.builder.appName("GateSpec")
      .config("spark.local.dir", sys.props("java.io.tmpdir"))
      .config(ExplainBench.sparkConf.toMap ++ Map("spark.sql.shuffle.partitions" -> "4")).getOrCreate()
    try {
      val db = Nba.generate(spark, 0.05, 11)
      val q = Nba.qNba4
      val uq = Nba.seasonQuestion(q, "2015-16", "2012-13")
      val params = Params(maxEdges = 0, maxNumericPreds = 1, topK = 3, f1SampleRate = 1.0)
      val res = Cajade.explain(db, q, uq, params)
      assert(res.topExplanations(3).nonEmpty)
      assert(new Gate(db, q, uq, 3).check(res).isEmpty)

      val e = res.topExplanations(1).head
      val forged = e.copy(quality = e.quality.copy(support1 = (e.quality.support1._1 + 1, e.quality.support1._2)))
      val tamperedRes = res.copy(explanations = forged +: res.explanations.filterNot(_ == e))
      val problems = new Gate(db, q, uq, 3).check(tamperedRes)
      assert(problems.exists(_.contains("support1")), problems)

      // A later call that ranks differently from the first call fails too.
      val gate = new Gate(db, q, uq, 3)
      assert(gate.check(res).isEmpty)
      assert(gate.check(res.copy(explanations = res.explanations.drop(1))).exists(_.contains("ranking differs")))
    } finally spark.stop()
  }
}
