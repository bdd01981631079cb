package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Params, Query}
import repro.core.Schema.Database
import repro.data.{Mimic, Nba}
import repro.exp.Tables

/** One benchmark workload: a generated database, one user question, and the
  * CaJaDE parameters every explain call of the run uses. The seed is the
  * only input that varies between runs, and it reaches the data generator
  * and nothing else.
  */
final case class Workload(
    name: String,
    why: String,
    dataset: String, // "nba" or "mimic"
    scale: Double,
    query: Query.QuerySpec,
    question: Query.TwoPoint,
    params: Params,
    warmupCalls: Int, // unmeasured calls after the cold one, past the steepest part of the JIT warm-up
    measuredCalls: Int, // warm calls measured per run; more for cheaper calls, within the run budget
) {
  def generate(spark: SparkSession, seed: Long): Database =
    if (dataset == "nba") Nba.generate(spark, scale, seed) else Mimic.generate(spark, scale, seed)

  def describeQuestion: String =
    s"${query.name}: ${question.t1.values.mkString(",")} vs ${question.t2.values.mkString(",")}"
}

object Workloads {

  val nbaWinsE1: Workload = Workload(
    name = "nba-wins-e1",
    why = "typical configuration with feature selection: one-edge enumeration and two join graphs " +
      "mined over APTs of about a hundred rows, so per-graph fixed costs and Spark scheduling dominate",
    dataset = "nba", scale = 1.0,
    query = Nba.qNba4, question = Nba.seasonQuestion(Nba.qNba4, "2015-16", "2012-13"),
    params = Tables.benchParams.copy(maxEdges = 1, maxJoinGraphs = 2, maxNumericPreds = 1),
    warmupCalls = 2,
    measuredCalls = 1,
  )

  val mimicInsuranceNaive: Workload = Workload(
    name = "mimic-insurance-naive",
    why = "the paper's Naive configuration on a provenance table of about 9k rows: no enumeration " +
      "or feature selection, exact F-scores of every pattern, so per-row work in Metrics.coverage dominates",
    dataset = "mimic", scale = 1.0,
    query = Mimic.qMimicInsurance, question = Mimic.question(Mimic.qMimicInsurance, "Medicare", "Private"),
    params = Tables.benchParams.copy(maxEdges = 0, featureSelection = false, f1SampleRate = 1.0,
      maxNumericPreds = 1),
    warmupCalls = 1,
    measuredCalls = 4,
  )

  val all: Seq[Workload] = Seq(nbaWinsE1, mimicInsuranceNaive)

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
