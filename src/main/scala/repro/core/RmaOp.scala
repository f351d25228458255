package repro.core

import org.apache.spark.sql.Column

import repro.core.Constructors.SplitRelation
import repro.matrix.{ColMatrix, MatrixBackend}

/** One relational matrix operation: its row of paper Table 1 plus how its
  * base result is computed (Table 2). The shape type alone decides which
  * contextual information the result inherits; [[Rma.apply]] turns it into a
  * relation constructor.
  *
  * @param name    the operation name, lower case, as written in SQL
  * @param shape   shape type (paper Table 1)
  * @param base    base result over the application parts of the arguments,
  *                vectors and scalars as 1-column and 1×1 matrices
  * @param checks  relation-level preconditions, run on the split arguments
  *                before the kernel; each gets the op name for its message
  * @param combine column arithmetic for the distributed element-wise path
  *                (shape (r*,c*) only)
  */
final case class RmaOp(
    name: String,
    shape: ShapeType,
    base: (MatrixBackend, IndexedSeq[ColMatrix]) => ColMatrix,
    checks: Seq[(String, IndexedSeq[SplitRelation]) => Unit] = Nil,
    combine: Option[(Column, Column) => Column] = None) {

  /** Binary iff a result dimension depends on the second argument. */
  val arity: Int =
    if (Seq(shape.rows, shape.cols).exists(Set[Dim](Dim.R2, Dim.C2, Dim.RStar, Dim.CStar))) 2 else 1
}

/** The operator catalogue: paper Tables 1 and 2, one entry per operation. */
object RmaOp {
  import Dim._

  private type Check = (String, IndexedSeq[SplitRelation]) => Unit

  private val square: Check = (op, sp) => {
    val m = sp(0).matrix
    require(m.nRows == m.nCols,
      s"$op: application part must be square, got ${m.nRows}x${m.nCols} " +
        s"(order schema ${sp(0).orderCols}, application schema ${sp(0).appCols})")
  }

  private val innerDims: Check = (op, sp) =>
    require(sp(0).matrix.nCols == sp(1).matrix.nRows,
      s"$op: |application schema of r| = ${sp(0).matrix.nCols} must equal |s| = ${sp(1).matrix.nRows}")

  private val equalWidth: Check = (op, sp) =>
    require(sp(0).matrix.nCols == sp(1).matrix.nCols,
      s"$op: application schemas must have equal width (${sp(0).matrix.nCols} vs ${sp(1).matrix.nCols})")

  private val equalRows: Check = (op, sp) =>
    require(sp(0).matrix.nRows == sp(1).matrix.nRows,
      s"$op: row counts differ (${sp(0).matrix.nRows} vs ${sp(1).matrix.nRows})")

  private val disjointOrders: Check = (_, sp) => {
    val common = sp(0).orderCols.intersect(sp(1).orderCols)
    require(common.isEmpty, s"order schemas must not overlap (paper §4.2): $common")
  }

  private val unionCompatible: Check = (op, sp) =>
    require(sp(0).matrix.nCols == sp(1).matrix.nCols,
      s"$op: application schemas are not union compatible (${sp(0).appCols} vs ${sp(1).appCols})")

  private val elementwise = Seq(disjointOrders, equalRows, unionCompatible)

  private def scalar(v: Double): ColMatrix = ColMatrix.fromVector(Array(v))

  // Shape (r1,c1): schema U ∘ Ū.
  val Inv = RmaOp("inv", ShapeType(R1, C1), (b, m) => b.inv(m(0)), Seq(square))
  val Evc = RmaOp("evc", ShapeType(R1, C1), (b, m) => b.eig(m(0))._2, Seq(square))
  val Chf = RmaOp("chf", ShapeType(R1, C1), (b, m) => b.chf(m(0)), Seq(square))
  val Qqr = RmaOp("qqr", ShapeType(R1, C1), (b, m) => b.qr(m(0))._1)
  // Shape (r1,r1): schema U ∘ ∇U, the full left SVD factor.
  val Usv = RmaOp("usv", ShapeType(R1, R1), (b, m) => b.svdFullU(m(0)))
  // Shape (r1,1): schema U ∘ (op), eigenvalues descending.
  val Evl = RmaOp("evl", ShapeType(R1, One), (b, m) => ColMatrix.fromVector(b.eig(m(0))._1), Seq(square))
  // Shape (c1,r1): schema (C) ∘ ∇U.
  val Tra = RmaOp("tra", ShapeType(C1, R1), (b, m) => b.tra(m(0)))
  // Shape (c1,c1): schema (C) ∘ Ū. vsv is (c1,c1), not the (r1,1) of the
  // paper's Table 1 (DESIGN.md §3).
  val Rqr = RmaOp("rqr", ShapeType(C1, C1), (b, m) => b.qr(m(0))._2)
  val Dsv = RmaOp("dsv", ShapeType(C1, C1), (b, m) => ColMatrix.diag(b.svd(m(0))._2))
  val Vsv = RmaOp("vsv", ShapeType(C1, C1), (b, m) => b.svd(m(0))._3)
  // Shape (1,1): schema (C, op), a single tuple.
  val Det = RmaOp("det", ShapeType(One, One), (b, m) => scalar(b.det(m(0))), Seq(square))
  val Rnk = RmaOp("rnk", ShapeType(One, One), (b, m) => scalar(b.rnk(m(0)).toDouble))
  // Binary: (r1,c2) U ∘ V̄, (r1,r2) U ∘ ∇V, (c1,c2) (C) ∘ V̄.
  val Mmu = RmaOp("mmu", ShapeType(R1, C2), (b, m) => b.mmu(m(0), m(1)), Seq(innerDims))
  val Opd = RmaOp("opd", ShapeType(R1, R2), (b, m) => b.opd(m(0), m(1)), Seq(equalWidth))
  val Cpd = RmaOp("cpd", ShapeType(C1, C2), (b, m) => b.cpd(m(0), m(1)), Seq(equalRows))
  val Sol = RmaOp("sol", ShapeType(C1, C2), (b, m) => b.sol(m(0), m(1)), Seq(equalRows))
  // Shape (r*,c*): schema U ∘ V ∘ Ū.
  val Add = RmaOp("add", ShapeType(RStar, CStar), (b, m) => b.add(m(0), m(1)), elementwise, Some(_ + _))
  val Sub = RmaOp("sub", ShapeType(RStar, CStar), (b, m) => b.sub(m(0), m(1)), elementwise, Some(_ - _))
  val Emu = RmaOp("emu", ShapeType(RStar, CStar), (b, m) => b.emu(m(0), m(1)), elementwise, Some(_ * _))

  val all: Seq[RmaOp] =
    Seq(Inv, Evc, Chf, Qqr, Usv, Evl, Tra, Rqr, Dsv, Vsv, Det, Rnk, Mmu, Opd, Cpd, Sol, Add, Sub, Emu)

  val byName: Map[String, RmaOp] = all.map(op => op.name -> op).toMap
}
